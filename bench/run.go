package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	vitex "repro"
)

// docTiming is one verified document of a run. Times are relative to the
// run's start. start is the hand-off: the Stream call or publish in a closed
// loop, the instant the publish was due in an open loop.
type docTiming struct {
	start, first, last time.Duration
	bytes              int
}

// runResult is everything one timed run observed from outside.
type runResult struct {
	docs              []docTiming
	attempted, failed int
	wall              time.Duration
	allocBytes        uint64
	mallocs           uint64

	// Load-generator accounting: how late each hand-off was (closed loop:
	// the generator's own gap after the previous completion; open loop:
	// behind schedule), the deepest backlog, and the offered rate.
	latenessMs []float64
	backlogMax int
	offered    float64
	ackUs      []float64 // served: duration of each publish call
	rejects    int       // served: publishes refused because the ingest queue was full
	gaps       int       // served: gap markers on the consumer's stream

	// Resume accounting (srv_durable_resume).
	replayed   int
	catchupsMs []float64

	spans []span
}

// latenciesUs returns each verified document's hand-off-to-last-result time.
func (r *runResult) latenciesUs() []float64 {
	v := make([]float64, len(r.docs))
	for i, d := range r.docs {
		v[i] = (d.last - d.start).Seconds() * 1e6
	}
	return v
}

// sink is the consumer side of one document: it counts and checksums results
// and stamps the first one and the one that completes the reference count.
type sink struct {
	t0          time.Time
	n, want     int
	sum         uint64
	first, last time.Duration
}

func (s *sink) begin(want int) { s.n, s.want, s.sum, s.first, s.last = 0, want, 0, 0, 0 }

func (s *sink) add(h uint64) {
	s.n++
	s.sum += h
	if s.n == 1 {
		s.first = time.Since(s.t0)
	}
	if s.n == s.want {
		s.last = time.Since(s.t0)
	}
}

// tracer records spans in memory when on; the zero value records nothing.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) add(name string, start, end time.Duration, parent, doc int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: parent, Doc: doc})
	return len(t.spans) - 1
}

// memCounters reads the allocation counters a run's deltas are taken from.
func memCounters() (bytes, mallocs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// runLibrary is the closed in-library loop: one goroutine hands the pool's
// documents to QuerySet.Stream one after another for dur, and is its own
// consumer through the emit callback.
func (f *fixture) runLibrary(l limit, traced bool) *runResult {
	res := &runResult{backlogMax: 1}
	tr := tracer{on: traced}
	sk := sink{}
	emit := func(r vitex.SetResult) error {
		sk.add(resultHash(r.QueryIndex, r.Seq, r.NodeOffset, r.Value))
		return nil
	}
	var rd bytes.Reader
	alloc0, mallocs0 := memCounters()
	sk.t0 = time.Now()
	prevEnd := time.Duration(0)
	for i := 0; ; i++ {
		start := time.Since(sk.t0)
		if l.reached(start, i) {
			break
		}
		res.latenessMs = append(res.latenessMs, (start-prevEnd).Seconds()*1e3)
		d := &f.pool[i%len(f.pool)]
		want, wantSum := d.ref.of(-1)
		root := tr.add("doc", start, start, -1, i)
		if f.w.churnEvery > 0 && i%f.w.churnEvery == 0 {
			if err := f.churn(&tr, root, i, sk.t0); err != nil {
				res.attempted++
				res.failed++
				continue
			}
		}
		sk.begin(want)
		rd.Reset(d.data)
		callStart := time.Since(sk.t0)
		_, err := f.set.Stream(&rd, f.w.opts, emit)
		prevEnd = time.Since(sk.t0)
		tr.add("vitex.QuerySet.Stream", callStart, prevEnd, root, i)
		res.attempted++
		if err != nil || sk.n != want || sk.sum != wantSum {
			res.failed++
			continue
		}
		if root >= 0 {
			tr.spans[root].End = int64(sk.last)
		}
		res.docs = append(res.docs, docTiming{start: start, first: sk.first, last: sk.last, bytes: len(d.data)})
	}
	res.wall = time.Since(sk.t0)
	alloc1, mallocs1 := memCounters()
	res.allocBytes, res.mallocs = alloc1-alloc0, mallocs1-mallocs0
	res.offered = float64(res.attempted) / res.wall.Seconds()
	res.spans = tr.spans
	return res
}

// churn is the write beside the reads: one subscription arrives and the
// oldest churn subscription leaves. The churn slot sits behind the base set,
// so no base query's index moves.
func (f *fixture) churn(tr *tracer, root, i int, t0 time.Time) error {
	base := len(f.queries)
	t := time.Since(t0)
	if _, err := f.set.Add(f.churnPool[(i/f.w.churnEvery)%len(f.churnPool)]); err != nil {
		return fmt.Errorf("churn add: %w", err)
	}
	mid := time.Since(t0)
	tr.add("vitex.QuerySet.Add", t, mid, root, i)
	if err := f.set.Remove(base); err != nil {
		return fmt.Errorf("churn remove: %w", err)
	}
	tr.add("vitex.QuerySet.Remove", mid, time.Since(t0), root, i)
	return nil
}
