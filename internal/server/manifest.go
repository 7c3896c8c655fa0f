// Channel manifests: the durable half of a channel that is not the document
// log. A manifest records the channel's name, its subscription-id allocator
// position, and every standing subscription (id + XPath text), so a
// restarted daemon can rebuild the channel's live QuerySet and hand the same
// subscription ids back to reconnecting consumers. Document cursors are NOT
// in the manifest — they recover from the WAL tail, which is the single
// source of truth for what was accepted.
//
// Manifests are tiny and rewritten whole on every subscription mutation,
// atomically (write temp file, rename into place), so a crash mid-update
// leaves either the old or the new manifest, never a torn one.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

const manifestName = "manifest.json"

// channelManifest is the on-disk record of one channel's standing state.
type channelManifest struct {
	// Name is the channel's wire name (the directory name is an encoding of
	// it; the manifest holds the truth).
	Name string `json:"name"`
	// NextSub is the subscription-id allocator position, persisted so ids
	// never collide across restarts.
	NextSub int64 `json:"next_sub"`
	// Subscriptions lists the standing queries in their QuerySet index
	// order.
	Subscriptions []manifestSub `json:"subscriptions"`
}

type manifestSub struct {
	ID    string `json:"id"`
	Query string `json:"query"`
	// ReplacedAt is the channel cursor at the query's last replacement.
	ReplacedAt int64 `json:"replaced_at,omitempty"`
}

// chanDirName encodes a channel name as a filesystem-safe directory name:
// hex for short names (reversible at a glance), a hash for names that would
// overflow NAME_MAX. Uniqueness is what matters — recovery reads the real
// name from the manifest.
func chanDirName(name string) string {
	enc := hex.EncodeToString([]byte(name))
	if len(enc) <= 128 {
		return "c-" + enc
	}
	sum := sha256.Sum256([]byte(name))
	return "h-" + hex.EncodeToString(sum[:])
}

// channelsDir is the root of all per-channel state under a data directory.
func channelsDir(dataDir string) string { return filepath.Join(dataDir, "channels") }

// saveManifest atomically writes m into dir.
func saveManifest(dir string, m *channelManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// loadManifest reads dir's manifest.
func loadManifest(dir string) (*channelManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m channelManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: manifest %s: %w", dir, err)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("server: manifest %s: empty channel name", dir)
	}
	return &m, nil
}
