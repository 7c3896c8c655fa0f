// Per-channel write-ahead log: the durability layer under the broker.
//
// Every accepted publish is appended here — length-prefixed, checksummed,
// carrying the document's monotonic cursor (its per-channel arrival number,
// the same value the wire protocol exposes as DocSeq) — BEFORE the document
// is evaluated or its publish acknowledged. That ordering is the whole
// at-least-once story: an acknowledged document is by construction a fully
// written record, so a crash can only tear the unacknowledged tail, and
// recovery (openWAL) rolls a torn or corrupt tail back to the last valid
// record. Subscribers resume by cursor: replay reads records from an offset
// and re-evaluates them through the channel's live QuerySet, which is what
// makes a daemon restart a non-event for a reconnecting consumer.
//
// On-disk layout (per channel directory):
//
//	wal-<first-cursor-hex>.seg   segment files, ascending; the last is active
//
// Segment format:
//
//	8-byte magic "VTXWAL01"
//	records: [8B cursor BE][4B payload len BE][4B CRC32-IEEE][payload]
//
// The CRC covers the cursor and length bytes as well as the payload, so a
// bit flip anywhere in a record is detected, and cursors must increase
// strictly within and across segments, so a misordered or replayed record
// also reads as corruption. Segments rotate at a configured byte size and
// old segments are deleted past a retention count; a replay that asks for a
// cursor older than the oldest retained record gets a structured gap (the
// caller surfaces the skipped cursor range), never silence.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	walMagic      = "VTXWAL01"
	walHeaderSize = 16 // 8B cursor + 4B length + 4B CRC
	// maxWALRecordBytes bounds a decoded record's payload; anything larger
	// than the HTTP layer can have accepted is corruption, and the bound
	// keeps a flipped length byte from turning recovery into a giant
	// allocation.
	maxWALRecordBytes = maxBodyBytes
)

// WALCorruptionError reports where and why a WAL segment stopped decoding.
// Recovery treats it as the end of the valid prefix (truncating the tail);
// replay surfaces it to the subscriber as a gap marker.
type WALCorruptionError struct {
	// Path is the segment file (empty when decoding a raw byte stream).
	Path string
	// Offset is the byte offset of the first invalid byte span.
	Offset int64
	// Reason says what failed: magic, header, checksum, cursor order, size.
	Reason string
}

func (e *WALCorruptionError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("wal: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// errWALStop is the sentinel a walScan callback returns to end iteration
// early without error.
var errWALStop = errors.New("wal: stop iteration")

// walScan decodes one segment's byte stream: magic, then records in strictly
// increasing cursor order, invoking fn for each. prev seeds the cursor
// monotonicity check (0 at the head of a log). It returns the byte length of
// the valid prefix (including the magic), the last valid cursor, and —
// unless the stream ended exactly on a record boundary — a
// *WALCorruptionError describing the tail. fn returning errWALStop ends the
// scan cleanly; any other fn error is returned as-is.
func walScan(r io.Reader, prev int64, fn func(cursor int64, payload []byte) error) (valid int64, last int64, err error) {
	br := r
	last = prev
	var magic [len(walMagic)]byte
	if _, rerr := io.ReadFull(br, magic[:]); rerr != nil {
		return 0, last, &WALCorruptionError{Offset: 0, Reason: "short magic"}
	}
	if string(magic[:]) != walMagic {
		return 0, last, &WALCorruptionError{Offset: 0, Reason: "bad magic"}
	}
	valid = int64(len(walMagic))
	var hdr [walHeaderSize]byte
	var payload []byte
	for {
		if _, rerr := io.ReadFull(br, hdr[:]); rerr != nil {
			if rerr == io.EOF {
				return valid, last, nil // clean end on a record boundary
			}
			return valid, last, &WALCorruptionError{Offset: valid, Reason: "short header"}
		}
		cursor := int64(binary.BigEndian.Uint64(hdr[0:8]))
		length := binary.BigEndian.Uint32(hdr[8:12])
		sum := binary.BigEndian.Uint32(hdr[12:16])
		if cursor <= last {
			return valid, last, &WALCorruptionError{Offset: valid, Reason: fmt.Sprintf("cursor %d not after %d", cursor, last)}
		}
		if int64(length) > maxWALRecordBytes {
			return valid, last, &WALCorruptionError{Offset: valid, Reason: fmt.Sprintf("record length %d exceeds limit", length)}
		}
		if int64(cap(payload)) < int64(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, rerr := io.ReadFull(br, payload); rerr != nil {
			return valid, last, &WALCorruptionError{Offset: valid, Reason: "short payload"}
		}
		crc := crc32.ChecksumIEEE(hdr[0:12])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != sum {
			return valid, last, &WALCorruptionError{Offset: valid, Reason: "checksum mismatch"}
		}
		if fn != nil {
			if ferr := fn(cursor, payload); ferr != nil {
				if ferr == errWALStop {
					return valid, cursor, nil
				}
				return valid, cursor, ferr
			}
		}
		valid += walHeaderSize + int64(length)
		last = cursor
	}
}

// appendWALRecord encodes one record into buf (reusing its capacity) and
// returns the encoded bytes. A record is written with a single Write call so
// a crash mid-append tears at most the final record, never an earlier one.
func appendWALRecord(buf []byte, cursor int64, payload []byte) []byte {
	need := walHeaderSize + len(payload)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:walHeaderSize]
	binary.BigEndian.PutUint64(buf[0:8], uint64(cursor))
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(buf[0:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(buf[12:16], crc)
	return append(buf, payload...)
}

// walSegment is one immutable segment descriptor: the cursor its first
// record carries (also encoded in its file name) and its path. The active
// segment's growing size lives on walLog, not here.
//
//vitex:cow
type walSegment struct {
	first int64
	path  string
}

// segName renders the canonical segment file name for its first cursor.
func segName(first int64) string {
	return fmt.Sprintf("wal-%016x.seg", uint64(first))
}

// parseSegName inverts segName; ok=false for foreign files.
func parseSegName(name string) (first int64, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return int64(v), true
}

// walLog is one channel's write-ahead log. Appends are serialized by the
// channel (publish admission holds the channel lock), but the log keeps its
// own mutex so metrics snapshots and replay planning are safe from any
// goroutine. Readers never take the lock while doing file IO: they snapshot
// the segment list and read through independent file descriptors, so a slow
// replay cannot stall ingestion.
//
//vitex:counters
type walLog struct {
	dir      string
	segBytes int64 //vitex:plain configured at construction, read-only afterwards
	retain   int   //vitex:plain configured at construction, read-only afterwards
	fsync    bool  //vitex:plain configured at construction, read-only afterwards

	mu         sync.Mutex
	f          *os.File
	segs       []walSegment
	activeSize int64 //vitex:guardedby=mu
	firstAvail int64 //vitex:guardedby=mu oldest retained cursor (0 = log empty)
	last       int64 //vitex:guardedby=mu last durable cursor
	totalBytes int64 //vitex:guardedby=mu
	closed     bool  //vitex:guardedby=mu
	buf        []byte

	// Latency accounting, recorded by every append: the write portion
	// (rotation and retention included, fsync excluded) and the fsync
	// portion (zero-count with fsync off). lastFsyncNs carries the most
	// recent append's fsync cost out to the publish path's stage trace —
	// sound because each channel's publishes are serialized under the
	// channel lock.
	appendHist  obs.Histogram
	fsyncHist   obs.Histogram
	lastFsyncNs int64 //vitex:guardedby=mu
}

// lastFsyncDur returns the fsync portion of the most recent append.
func (w *walLog) lastFsyncDur() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Duration(w.lastFsyncNs)
}

// latency snapshots the append/fsync histograms.
func (w *walLog) latency() (appendNs, fsyncNs obs.Snapshot) {
	return w.appendHist.Snapshot(), w.fsyncHist.Snapshot()
}

// openWAL opens (creating if needed) the channel WAL in dir and recovers its
// state: segments are scanned in order, cursors are validated strictly
// increasing across the whole log, and the first corrupt or torn record
// truncates the log there — the valid prefix survives, later bytes and
// segments are discarded. It returns the recovered log; lastCursor reports
// the recovery point (0 for an empty log). The log is unpublished until it
// returns, so the guarded fields are safe to fill without w.mu.
//
//vitex:locked
func openWAL(dir string, segBytes int64, retain int, fsync bool) (*walLog, error) {
	if segBytes <= 0 {
		segBytes = 8 << 20
	}
	if retain < 2 {
		retain = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &walLog{dir: dir, segBytes: segBytes, retain: retain, fsync: fsync}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, walSegment{first: first, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	var prev int64
	for i, seg := range segs {
		valid, last, scanErr := w.scanSegment(seg, prev, nil)
		keepTo := i
		switch {
		case scanErr == nil && last > prev:
			prev = last
			keepTo = i + 1
		case scanErr == nil:
			// Structurally fine but empty (rotation crashed between creating
			// the file and the first append): usable only as the tail.
			keepTo = i + 1
		default:
			// Corrupt or torn: keep the valid prefix of this segment, drop
			// everything after it.
			var ce *WALCorruptionError
			if !errors.As(scanErr, &ce) {
				return nil, scanErr
			}
			if valid > int64(len(walMagic)) || ce.Offset > 0 {
				if err := os.Truncate(seg.path, valid); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
				}
				prev = last
				keepTo = i + 1
			} else {
				// Not even a valid magic: the file carries no data; drop it.
				if err := os.Remove(seg.path); err != nil {
					return nil, err
				}
			}
		}
		if keepTo <= i {
			// This segment was dropped; any later segments are beyond the
			// valid prefix too.
			for _, later := range segs[i+1:] {
				if err := os.Remove(later.path); err != nil {
					return nil, err
				}
			}
			segs = segs[:i]
			break
		}
		if scanErr != nil {
			for _, later := range segs[i+1:] {
				if err := os.Remove(later.path); err != nil {
					return nil, err
				}
			}
			segs = segs[:i+1]
			break
		}
	}

	w.segs = segs
	w.last = prev
	if len(segs) > 0 {
		w.firstAvail = segs[0].first
		active := segs[len(segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = f
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		w.activeSize = st.Size()
		var total int64
		for _, s := range segs[:len(segs)-1] {
			if st, err := os.Stat(s.path); err == nil {
				total += st.Size()
			}
		}
		w.totalBytes = total + w.activeSize
	}
	return w, nil
}

// scanSegment runs walScan over one segment file, tagging corruption errors
// with the path.
func (w *walLog) scanSegment(seg walSegment, prev int64, fn func(cursor int64, payload []byte) error) (valid int64, last int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, prev, err
	}
	defer f.Close()
	valid, last, err = walScan(bufio.NewReaderSize(f, 64<<10), prev, fn)
	var ce *WALCorruptionError
	if errors.As(err, &ce) && ce.Path == "" {
		ce.Path = seg.path
	}
	return valid, last, err
}

// append makes one record durable. cursor must be strictly greater than
// every cursor already in the log (the channel assigns them monotonically
// under its lock). Rotation and retention run here, before the write, so the
// record lands in a segment with room.
func (w *walLog) append(cursor int64, payload []byte) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrShutdown
	}
	if cursor <= w.last {
		return fmt.Errorf("wal: cursor %d not after %d", cursor, w.last)
	}
	if w.f == nil || w.activeSize >= w.segBytes {
		if err := w.rotateLocked(cursor); err != nil {
			return err
		}
	}
	w.buf = appendWALRecord(w.buf, cursor, payload)
	n, err := w.f.Write(w.buf)
	if err != nil {
		// A partial write is a torn tail: the next open truncates it. Do not
		// advance the cursor — the publish is rejected, never acknowledged.
		if n > 0 {
			w.activeSize += int64(n)
			w.totalBytes += int64(n)
		}
		return fmt.Errorf("wal: append cursor %d: %w", cursor, err)
	}
	w.lastFsyncNs = 0
	if w.fsync {
		syncStart := time.Now()
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync cursor %d: %w", cursor, err)
		}
		w.lastFsyncNs = time.Since(syncStart).Nanoseconds()
		w.fsyncHist.ObserveNs(w.lastFsyncNs)
	}
	w.appendHist.ObserveNs(time.Since(start).Nanoseconds() - w.lastFsyncNs)
	w.activeSize += int64(len(w.buf))
	w.totalBytes += int64(len(w.buf))
	w.last = cursor
	if w.firstAvail == 0 {
		w.firstAvail = cursor
	}
	return nil
}

// rotateLocked opens a fresh active segment whose first record will carry
// cursor, and applies retention to the now-sealed segments. Callee of
// append, which holds w.mu.
//
//vitex:locked
func (w *walLog) rotateLocked(cursor int64) error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	seg := walSegment{first: cursor, path: filepath.Join(w.dir, segName(cursor))}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segs = append(w.segs, seg)
	w.activeSize = int64(len(walMagic))
	w.totalBytes += int64(len(walMagic))
	for len(w.segs) > w.retain {
		old := w.segs[0]
		var reclaimed int64
		if st, err := os.Stat(old.path); err == nil {
			reclaimed = st.Size()
		}
		if err := os.Remove(old.path); err != nil {
			return err
		}
		w.segs = append(w.segs[:0], w.segs[1:]...)
		w.totalBytes -= reclaimed
		w.firstAvail = w.segs[0].first
	}
	return nil
}

// close seals the log; appends fail afterwards. Concurrent readers are
// unaffected (they hold their own descriptors).
func (w *walLog) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f != nil {
		err := w.f.Close()
		w.f = nil
		return err
	}
	return nil
}

// walStats is a metrics snapshot of the log.
type walStats struct {
	bytes    int64
	segments int
	first    int64
	last     int64
}

func (w *walLog) stats() walStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return walStats{bytes: w.totalBytes, segments: len(w.segs), first: w.firstAvail, last: w.last}
}

// oldest returns the oldest retained cursor (0 when the log is empty).
func (w *walLog) oldest() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstAvail
}

// iterate replays payloads for cursors in [from, to] in order. It reads
// through fresh descriptors against a snapshot of the segment list, so it
// runs concurrently with appends; because `to` is always a cursor that was
// durable before the call, a torn or in-progress record past `to` is
// unreachable. A segment deleted by retention mid-iteration, or corruption
// before `to`, returns a *WALCorruptionError — the caller renders the
// unreadable span as a gap.
func (w *walLog) iterate(from, to int64, fn func(cursor int64, payload []byte) error) error {
	if from < 1 {
		from = 1
	}
	if to < from {
		return nil
	}
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segs...)
	w.mu.Unlock()
	// Skip segments that end before `from`: a segment's records are bounded
	// by the next segment's first cursor.
	start := 0
	for i := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from {
			start = i + 1
		}
	}
	prev := from - 1
	done := false
	for _, seg := range segs[start:] {
		if seg.first > to {
			break
		}
		// Records before `from` in the first segment are skipped via the
		// monotonicity seed being below them; walScan requires increasing
		// cursors from `prev`, and earlier records simply aren't passed to
		// fn.
		_, last, err := w.scanSegment(seg, min64(prev, seg.first-1), func(cursor int64, payload []byte) error {
			if cursor < from {
				return nil
			}
			if cursor > to {
				done = true
				return errWALStop
			}
			if err := fn(cursor, payload); err != nil {
				return err
			}
			if cursor == to {
				// Stop here: the bytes after `to` may be a record an
				// append is still writing.
				done = true
				return errWALStop
			}
			return nil
		})
		if err != nil {
			if os.IsNotExist(err) {
				return &WALCorruptionError{Path: seg.path, Reason: "segment removed by retention"}
			}
			return err
		}
		if done || last >= to {
			return nil
		}
		prev = last
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
