// Package pool is a resetcomplete fixture modeled on the engine's pooled
// session types.
package pool

import (
	"sync"
	"sync/atomic"
)

var sessions = sync.Pool{}

// session is auto-detected as pooled via the Get type assertion below.
// Its reset forgets the handler field: the next stream Got from the pool
// would deliver to the previous stream's consumer.
type session struct {
	id      int
	events  int
	runs    []*run
	handler func() error
	abort   atomic.Bool
	scratch []byte //vitex:keep reused append arena, length reset via runs loop
}

type run struct {
	count int
	live  bool
}

func (r *run) reset() {
	r.count = 0
	r.live = false
}

func (s *session) reset() { // want `session\.reset does not reset field handler`
	s.id = 0
	s.events = 0
	for _, r := range s.runs {
		r.reset()
	}
	s.abort.Store(false)
}

func get() *session {
	s, _ := sessions.Get().(*session)
	return s
}

// worker is marked pooled and resets everything: no reports.
//
//vitex:pooled
type worker struct {
	in    chan int
	done  bool
	stats [4]int64
	sub   run
}

func (w *worker) Reset() {
	w.in = nil
	w.done = false
	w.clearStats()
	w.sub.reset()
}

func (w *worker) clearStats() {
	for i := range w.stats {
		w.stats[i] = 0
	}
}

// batch zeroes the whole receiver, covering every field at once.
//
//vitex:pooled
type batch struct {
	buf  []byte
	next *batch
}

func (b *batch) Reset() {
	*b = batch{}
}

// orphan is pooled but has no Reset at all.
//
//vitex:pooled
type orphan struct { // want `pooled type orphan has no Reset method`
	leak int
}

// tables is kept whole by cache below.
type tables struct {
	names []string
}

// cache embeds its tables and keeps them: the marker on an embedded field
// counts like one on a named field.
//
//vitex:pooled
type cache struct {
	tables //vitex:keep rebuilt only when the membership changes
	hits   int
}

func (c *cache) reset() { c.hits = 0 }
