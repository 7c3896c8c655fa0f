package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collectWAL reads every record in [from, to] into a cursor->payload map.
func collectWAL(t *testing.T, w *walLog, from, to int64) map[int64]string {
	t.Helper()
	got := map[int64]string{}
	err := w.iterate(from, to, func(cursor int64, payload []byte) error {
		got[cursor] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("iterate(%d, %d): %v", from, to, err)
	}
	return got
}

// TestWALAppendRecover: records written before a close are all readable after
// a reopen, with the recovery cursor at the last append.
func TestWALAppendRecover(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{}
	for c := int64(1); c <= 20; c++ {
		payload := fmt.Sprintf("<doc n='%d'/>", c)
		if err := w.append(c, []byte(payload)); err != nil {
			t.Fatalf("append %d: %v", c, err)
		}
		want[c] = payload
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	st := w2.stats()
	if st.last != 20 || st.first != 1 {
		t.Fatalf("recovered cursors [%d, %d], want [1, 20]", st.first, st.last)
	}
	got := collectWAL(t, w2, 1, 20)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for c, p := range want {
		if got[c] != p {
			t.Fatalf("cursor %d payload = %q, want %q", c, got[c], p)
		}
	}
	// Appends continue past the recovery point; stale cursors are rejected.
	if err := w2.append(20, []byte("dup")); err == nil {
		t.Fatal("append at recovered cursor succeeded, want monotonicity error")
	}
	if err := w2.append(21, []byte("next")); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTail: a crash mid-record (simulated by chopping bytes off the
// active segment) rolls back to the last complete record on reopen — and the
// torn bytes are physically truncated, so the next append extends a valid
// log.
func TestWALTornTail(t *testing.T) {
	for cut := int64(1); cut <= 20; cut += 4 {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, 1<<20, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			for c := int64(1); c <= 5; c++ {
				if err := w.append(c, []byte(strings.Repeat("x", 40))); err != nil {
					t.Fatal(err)
				}
			}
			w.close()

			seg := filepath.Join(dir, segName(1))
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, st.Size()-cut); err != nil {
				t.Fatal(err)
			}

			w2, err := openWAL(dir, 1<<20, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.close()
			// Cutting up to a whole record (16B header + 40B payload) loses
			// exactly the last record; less loses nothing it shouldn't.
			wantLast := int64(4)
			if cut > walHeaderSize+40 {
				wantLast = 3
			}
			if got := w2.stats().last; got != wantLast {
				t.Fatalf("recovered last = %d, want %d", got, wantLast)
			}
			got := collectWAL(t, w2, 1, wantLast)
			if int64(len(got)) != wantLast {
				t.Fatalf("replayed %d records, want %d", len(got), wantLast)
			}
			if err := w2.append(wantLast+1, []byte("after")); err != nil {
				t.Fatal(err)
			}
			w2.close()
			// The repaired log reopens cleanly end-to-end.
			w3, err := openWAL(dir, 1<<20, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w3.close()
			if got := w3.stats().last; got != wantLast+1 {
				t.Fatalf("after repair+append, last = %d, want %d", got, wantLast+1)
			}
		})
	}
}

// TestWALBitFlip: corrupting one byte inside an early record truncates the
// log at that record; everything before it survives.
func TestWALBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(1); c <= 6; c++ {
		if err := w.append(c, []byte(strings.Repeat("y", 32))); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	// Flip a payload byte of record 4: magic(8) + 3 records of (16+32) + a
	// bit into the fourth record's payload.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 8 + 3*(walHeaderSize+32) + walHeaderSize + 5
	data[off] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if got := w2.stats().last; got != 3 {
		t.Fatalf("recovered last = %d, want 3 (flip lands in record 4)", got)
	}
}

// TestWALRotationRetention: a small segment budget forces rotation; the
// retention count deletes the oldest segments and the replayable window
// tracks them.
func TestWALRotationRetention(t *testing.T) {
	dir := t.TempDir()
	// ~56B records against a 150B segment budget: a couple of records per
	// segment.
	w, err := openWAL(dir, 150, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for c := int64(1); c <= 30; c++ {
		if err := w.append(c, []byte(strings.Repeat("z", 40))); err != nil {
			t.Fatal(err)
		}
	}
	st := w.stats()
	if st.segments > 3 {
		t.Fatalf("retention kept %d segments, want <= 3", st.segments)
	}
	if st.first <= 1 {
		t.Fatalf("oldest retained cursor = %d; retention should have advanced it", st.first)
	}
	if st.last != 30 {
		t.Fatalf("last = %d, want 30", st.last)
	}
	// The retained window replays completely and in order.
	var cursors []int64
	err = w.iterate(st.first, st.last, func(cursor int64, payload []byte) error {
		cursors = append(cursors, cursor)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(cursors)) != st.last-st.first+1 {
		t.Fatalf("window replayed %d records, want %d", len(cursors), st.last-st.first+1)
	}
	for i, c := range cursors {
		if c != st.first+int64(i) {
			t.Fatalf("cursors out of order at %d: %v", i, cursors)
		}
	}
	// On-disk segment files match the retained set.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.segments {
		t.Fatalf("%d files on disk, stats say %d segments", len(entries), st.segments)
	}
	// Reopen sees the same window.
	w.close()
	w2, err := openWAL(dir, 150, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if st2 := w2.stats(); st2.first != st.first || st2.last != st.last {
		t.Fatalf("reopened window [%d, %d], want [%d, %d]", st2.first, st2.last, st.first, st.last)
	}
}

// TestWALIterateSubrange: iterate honors both bounds, including a `from`
// inside a segment.
func TestWALIterateSubrange(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 200, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for c := int64(1); c <= 12; c++ {
		if err := w.append(c, []byte(fmt.Sprintf("p%d", c))); err != nil {
			t.Fatal(err)
		}
	}
	got := collectWAL(t, w, 5, 9)
	if len(got) != 5 {
		t.Fatalf("subrange replayed %d records, want 5: %v", len(got), got)
	}
	for c := int64(5); c <= 9; c++ {
		if got[c] != fmt.Sprintf("p%d", c) {
			t.Fatalf("cursor %d = %q", c, got[c])
		}
	}
	if got := collectWAL(t, w, 13, 99); len(got) != 0 {
		t.Fatalf("past-the-end replay returned %v", got)
	}
}

// TestWALEmptySegmentRecovery: a rotation that crashed right after creating
// the new segment (magic only, no records) still recovers — the empty tail
// is reusable.
func TestWALEmptySegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(1); c <= 3; c++ {
		if err := w.append(c, []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	if err := os.WriteFile(filepath.Join(dir, segName(4)), []byte(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if got := w2.stats().last; got != 3 {
		t.Fatalf("recovered last = %d, want 3", got)
	}
	if err := w2.append(4, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := collectWAL(t, w2, 1, 4); len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
}

// FuzzWALDecode: walScan must never panic on arbitrary bytes, must fail only
// with a structured corruption error, and the valid prefix it reports must
// itself rescan cleanly to the same cursor — the exact contract recovery
// (truncate to the prefix, resume from its last cursor) depends on.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add([]byte("VTXWAL00 not the right magic"))
	one := appendWALRecord(nil, 1, []byte("<doc/>"))
	two := appendWALRecord(nil, 2, []byte("<feed><trade/></feed>"))
	wellFormed := append(append([]byte(walMagic), one...), two...)
	f.Add(wellFormed)
	f.Add(wellFormed[:len(wellFormed)-3]) // torn tail
	flipped := bytes.Clone(wellFormed)
	flipped[len(walMagic)+walHeaderSize+2] ^= 0x01
	f.Add(flipped) // checksum mismatch
	misordered := append(append([]byte(walMagic), two...), one...)
	f.Add(misordered) // cursor regression

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, last, err := walScan(bytes.NewReader(data), 0, func(cursor int64, payload []byte) error {
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err != nil {
			var ce *WALCorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("scan error is not a WALCorruptionError: %v", err)
			}
			if ce.Reason == "" {
				t.Fatalf("corruption error without a reason: %v", ce)
			}
		}
		if valid == 0 {
			return // no decodable prefix (bad or missing magic)
		}
		revalid, relast, rerr := walScan(bytes.NewReader(data[:valid]), 0, nil)
		if rerr != nil {
			t.Fatalf("valid prefix does not rescan cleanly: %v", rerr)
		}
		if revalid != valid || relast != last {
			t.Fatalf("prefix rescan = (%d, %d), want (%d, %d)", revalid, relast, valid, last)
		}
	})
}

// TestWALIterateStopsAtTo: replaying [from, to] must never look past `to`.
// The bytes after it may be a record an append is halfway through writing;
// reading into them used to surface as a false *WALCorruptionError, which
// resuming subscribers saw as a "wal unreadable" gap over the newest cursors.
// The half-written record is planted directly, so the test does not depend
// on winning a race.
func TestWALIterateStopsAtTo(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for c := int64(1); c <= 5; c++ {
		if err := w.append(c, []byte(fmt.Sprintf("p%d", c))); err != nil {
			t.Fatal(err)
		}
	}
	torn := appendWALRecord(nil, 6, bytes.Repeat([]byte("x"), 4096))
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := collectWAL(t, w, 1, 5); len(got) != 5 {
		t.Fatalf("replayed %d records, want 5: %v", len(got), got)
	}
	if got := collectWAL(t, w, 3, 5); len(got) != 3 {
		t.Fatalf("subrange replayed %d records, want 3: %v", len(got), got)
	}
}

// TestWALIterateConcurrentAppend is the same property under real
// concurrency: replaying [1, last] in a loop while another goroutine appends
// reports no corruption and skips no cursor.
func TestWALIterateConcurrentAppend(t *testing.T) {
	w, err := openWAL(t.TempDir(), 1<<20, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	payload := bytes.Repeat([]byte("x"), 40<<10) // many pages: a write is visibly not atomic
	const records = 2000
	if err := w.append(1, payload); err != nil {
		t.Fatal(err)
	}
	appended := make(chan error, 1)
	go func() {
		for c := int64(2); c <= records; c++ {
			if err := w.append(c, payload); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	for {
		last := w.stats().last
		from := max(1, last-8)
		next := from
		err := w.iterate(from, last, func(cursor int64, p []byte) error {
			if cursor != next || len(p) != len(payload) {
				return fmt.Errorf("record %d (%d bytes), want %d (%d bytes)", cursor, len(p), next, len(payload))
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("iterate(%d, %d) during appends: %v", from, last, err)
		}
		if next != last+1 {
			t.Fatalf("iterate(%d, %d) stopped at %d: gap", from, last, next-1)
		}
		if last == records {
			break
		}
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
}
