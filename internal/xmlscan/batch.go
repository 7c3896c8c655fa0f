// Event delivery (sax.Handler): the scanner accumulates events in a pooled
// array and hands the handler up to eventBatch of them per call. Character
// data and attribute values are not materialized as Go strings: they are
// unsafe.String views over a scanner-owned byte arena, valid only until
// HandleBatch returns (the sax.Handler lifetime rule), after which the batch,
// its attribute backing array and the arena are truncated wholesale for
// reuse. Element names stay interned, stable strings: the routed engine
// dispatches on them across documents.
//
// A batch goes out when it spans eventBatch scanned events (a full batch, but
// for the events a projection omits), when the document ends, and — so that a
// slow input never holds proven results back — before every read of the
// input (fill). Under a projection it goes out at those points even when it
// is empty (Project).
package xmlscan

import (
	"unsafe"

	"repro/internal/sax"
)

// eventBatch is the number of events delivered per HandleBatch call. Sized
// so a batch (events + attrs + character data) stays within a typical L1
// data cache: the handler re-reads the events the scanner just wrote.
// Sizes 16-512 measure flat within noise (hypotheses/scanner-bandwidth).
const eventBatch = 128

// arenaString copies b into the batch character-data arena and returns a
// string view of the copy without a string header allocation. The view stays
// valid until the arena is truncated at the next batch flush — growth is
// safe: append may move the arena, but views into the old backing keep it
// alive.
//
//vitex:hotpath
func (s *Scanner) arenaString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	st := len(s.arena)
	s.arena = append(s.arena, b...)
	a := s.arena[st:]
	return unsafe.String(&a[0], len(a))
}

// bufString views b as a string without copying: a value that lives only as
// long as b's bytes stay where they are (the read window, until the next
// fill). arenaString makes a batch copy of it.
//
//vitex:hotpath
func bufString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// stringBytes is bufString's inverse: the bytes a view string shares.
//
//vitex:hotpath
func stringBytes(v string) []byte { return unsafe.Slice(unsafe.StringData(v), len(v)) }

// batchSlot extends the batch by one event and returns the slot for the
// emitter to fill in place — the batch array is sized to batchLimit at Run
// setup and flushed before it fills, so the extension never reallocates and
// events are written exactly once. The slot still holds a previous batch's
// event; callers must store every field.
//
//vitex:hotpath
func (s *Scanner) batchSlot() *sax.Event {
	n := len(s.batch)
	s.batch = s.batch[:n+1]
	return &s.batch[n]
}

// batchQueued finishes queueing the event just written into a batch slot, or
// counting one a projection omits: a batch that spans batchLimit scanned
// events since the last flush goes out inline. Without a projection that is a
// full batch.
//
//vitex:hotpath
func (s *Scanner) batchQueued() error {
	if s.events-s.batchFrom >= int64(s.batchLimit)-1 {
		return s.flushBatch()
	}
	return nil
}

// flushBatch delivers the queued events and recycles the arenas: after the
// handler returns, every Text/Attr.Value string handed out in this batch is
// dead per the sax.Handler lifetime rule. Once the handler has failed nothing
// more is delivered; the error is sticky and returned from every later call.
func (s *Scanner) flushBatch() error {
	if s.herr == nil && (len(s.batch) > 0 || s.proj != nil) {
		s.herr = s.h.HandleBatch(s.batch)
	}
	s.batchFrom = s.events + 1
	if n := len(s.marks); n > 0 && s.herr == nil {
		// Handled whole; a failure is looked up in the marks it keeps.
		s.prev = s.marks[n-1]
		s.marks = s.marks[:0]
	}
	s.batch = s.batch[:0]
	s.batchAttrs = s.batchAttrs[:0]
	s.arena = s.arena[:0]
	return s.herr
}
