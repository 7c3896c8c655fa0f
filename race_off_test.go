//go:build !race

package vitex

const raceEnabled = false
