//go:build race

package vitex

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// Put into it, so pooled sessions are rebuilt at random and allocation counts
// mean nothing.
const raceEnabled = true
