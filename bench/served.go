package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/server"
)

const channelName = "bench"

// docDone is the consumer's report on one document of the result stream.
type docDone struct {
	seq         int64 // the channel's DocSeq
	first, last time.Time
	ok          bool
	err         error // the stream broke; nothing further will be reported
	// Set on the document that ends a resume catch-up.
	catchupMs float64
	replayed  int
}

// served is a broker behind net/http on loopback with one publisher
// connection and one consumer connection: the two working goroutines a
// 2-core host affords.
type served struct {
	f      *fixture
	broker *server.Broker
	cfg    server.Config
	http   *http.Server
	served chan struct{} // closed when http.Serve returns
	cl     *client.Client
	subID  string
	ctx    context.Context
	cancel context.CancelFunc

	// done carries one report per document from the consumer. The buffer
	// holds a few seconds of open-loop traffic so the consumer never waits
	// on the generator's bookkeeping.
	done     chan docDone
	consumed chan struct{} // closed when the consumer goroutine exits
	stream   atomic.Pointer[client.ResultStream]

	// rate is the open-loop rate of the next run (0: closed loop); the
	// layer probes change it between runs. severEvery and awayDocs are
	// fixed at start, and only an open-loop timed run severs: in a closed
	// loop the generator would wait for the absent consumer.
	rate                 float64
	severEvery, awayDocs int
	inProcess            bool // publish through Broker.Publish, not HTTP
	keepData             bool // leave the WAL on disk at close

	published atomic.Int64 // DocSeq of the latest accepted publish
	backAt    atomic.Int64 // the severed consumer returns once this DocSeq is published
	back      chan struct{}
	severing  atomic.Bool // sever-and-resume is active (timed runs only)
	closing   atomic.Bool
	gaps      atomic.Int64 // gap markers the consumer saw
	dropped   atomic.Int64 // results those markers reported lost
}

// startServed starts the workload's broker (durable: with a WAL under dir),
// subscribes the standing set and attaches the consumer to the live
// subscription.
func startServed(f *fixture, dir string) (*served, error) {
	cfg := server.Config{RingSize: f.w.ringSize, Policy: server.PolicyBlock}
	if f.w.durable {
		// WALSync stays off: a shared disk's fsync is not the program.
		var err error
		if cfg.DataDir, err = os.MkdirTemp(dir, "wal-"); err != nil {
			return nil, err
		}
	}
	return startBroker(f, cfg, f.queries, f.live, f.w.severEvery, f.w.awayDocs)
}

// startBroker serves cfg on loopback, subscribes queries and attaches a
// consumer to queries[attach], which must be f.queries[f.live].
func startBroker(f *fixture, cfg server.Config, queries []string, attach, severEvery, awayDocs int) (*served, error) {
	s := &served{
		f: f, cfg: cfg, rate: f.w.rate, severEvery: severEvery, awayDocs: awayDocs,
		done: make(chan docDone, 1<<14), served: make(chan struct{}), consumed: make(chan struct{}), back: make(chan struct{}, 1),
	}
	var err error
	if s.broker, err = server.Open(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.http = &http.Server{Handler: server.Handler(s.broker)}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns ErrServerClosed at close
	}()
	s.cl = client.New("http://" + ln.Addr().String())
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for q, src := range queries {
		resp, err := s.cl.Subscribe(s.ctx, channelName, src)
		if err != nil {
			close(s.consumed)
			s.close()
			return nil, fmt.Errorf("subscribe %q: %w", src, err)
		}
		if q == attach {
			s.subID = resp.ID
		}
	}
	stream, err := s.cl.Results(s.ctx, channelName, s.subID)
	if err != nil {
		close(s.consumed)
		s.close()
		return nil, fmt.Errorf("attach: %w", err)
	}
	s.stream.Store(stream)
	go s.consume(f.live)
	return s, nil
}

// consume is the consumer connection: it reads the live subscription's
// stream, checks every document against its reference and reports it on
// done. Documents arrive in DocSeq order and document d of the channel is
// pool document (d-1) mod poolSize, because publishes are round-robin from
// the channel's first document.
func (s *served) consume(live int) {
	defer close(s.consumed)
	var (
		seq         int64
		n, want     int
		sum, wanted uint64
		first       time.Time
		resumeAt    time.Time // a resume is catching up to resumeTo
		resumeTo    int64
		resumeFrom  int64
	)
	for {
		d, err := s.stream.Load().Next()
		if err != nil {
			if !s.closing.Load() {
				s.done <- docDone{err: err}
			}
			return
		}
		switch d.Type {
		case server.DeliveryEnd:
			return
		case server.DeliveryGap:
			s.gaps.Add(1)
			s.dropped.Add(d.Dropped)
			continue
		}
		if d.DocSeq != seq {
			if seq != 0 && n < want {
				s.done <- docDone{seq: seq}
			}
			seq, n, sum, first = d.DocSeq, 0, 0, time.Now()
			want, wanted = s.f.pool[int(seq-1)%len(s.f.pool)].ref.of(live)
		}
		n++
		sum += resultHash(live, d.Seq, d.NodeOffset, d.Value)
		switch {
		case n > want:
			s.done <- docDone{seq: seq}
		case n == want:
			rep := docDone{seq: seq, first: first, last: time.Now(), ok: sum == wanted}
			if resumeTo != 0 && seq >= resumeTo {
				rep.catchupMs = rep.last.Sub(resumeAt).Seconds() * 1e3
				rep.replayed = int(resumeTo - resumeFrom)
				resumeTo = 0
			}
			s.done <- rep
			if every := int64(s.severEvery); every > 0 && seq%every == 0 && s.severing.Load() {
				resumeFrom = seq
				if resumeTo, resumeAt, err = s.severAndResume(seq); err != nil {
					s.done <- docDone{err: err}
					return
				}
			}
		}
	}
}

// severAndResume drops the consumer connection, stays away for the workload's
// awayDocs publishes and resumes from the token. It returns the DocSeq
// already published at the moment of the Resume call — the document whose
// completion means "caught up" — and the time of the call.
func (s *served) severAndResume(seq int64) (int64, time.Time, error) {
	old := s.stream.Load()
	tok := old.Token()
	old.Close()
	// The generator wakes the consumer once awayDocs more documents are
	// out (or the run ends): a sleeping poll would oversleep by a period.
	back := seq + int64(s.awayDocs)
	s.backAt.Store(back)
	if s.severing.Load() || !s.backAt.CompareAndSwap(back, 0) {
		// Whoever swaps backAt to zero owns the wake-up: the generator
		// (then a signal is on its way) or, once the run has ended
		// without one, the consumer itself.
		<-s.back
	}
	target, at := s.published.Load(), time.Now()
	for {
		st, err := s.cl.Resume(s.ctx, tok)
		var api *client.APIError
		if errors.As(err, &api) && api.Status == http.StatusConflict && time.Since(at) < 10*time.Second {
			// The server has not yet noticed the dropped connection.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err != nil {
			return 0, at, fmt.Errorf("resume at %d: %w", seq, err)
		}
		s.stream.Store(st)
		return max(target, seq+1), at, nil
	}
}

// publish hands pool document for the channel's next DocSeq to the server
// and checks the DocSeq it was given.
func (s *served) publish(async bool) (int, error) {
	next := s.published.Load() + 1
	data := s.f.pool[int(next-1)%len(s.f.pool)].data
	var resp *server.PublishResponse
	var err error
	switch {
	case s.inProcess:
		resp, err = s.broker.Publish(s.ctx, channelName, data, !async)
	case async:
		resp, err = s.cl.PublishAsync(s.ctx, channelName, bytes.NewReader(data))
	default:
		resp, err = s.cl.Publish(s.ctx, channelName, bytes.NewReader(data))
	}
	if err != nil {
		return len(data), err
	}
	if resp.DocSeq != next {
		return len(data), fmt.Errorf("publish: DocSeq %d, expected %d", resp.DocSeq, next)
	}
	s.published.Store(next)
	if at := s.backAt.Load(); at != 0 && next >= at && s.backAt.CompareAndSwap(at, 0) {
		s.back <- struct{}{}
	}
	return len(data), nil
}

// inflight is a published document waiting for its consumer report.
type inflight struct {
	start time.Duration // hand-off, relative to the run's start
	bytes int
	doc   int // index in the run
	root  int // its root span
}

// run is the load generator. Closed loop (rate 0): one synchronous publish
// in flight, the next only after the consumer holds the last result. Open
// loop: one asynchronous publish every 1/rate seconds whatever the server
// does, timed from the instant each was due.
func (s *served) run(l limit, traced bool) *runResult {
	res := &runResult{}
	tr := tracer{on: traced}
	rate := s.rate
	s.severing.Store(l.dur > 0 && rate > 0)
	if l.dur > 0 && rate > 0 {
		l = limit{docs: int(l.dur.Seconds() * rate)}
	}
	call := "client.Publish"
	if rate > 0 {
		call = "client.PublishAsync"
	}
	waiting := make(map[int64]inflight)
	broken := false
	gaps0 := s.gaps.Load()
	alloc0, mallocs0 := memCounters()
	t0 := time.Now()

	settle := func(d docDone) {
		w, known := waiting[d.seq]
		switch {
		case d.err != nil:
			broken = true
			return
		case !known: // results beyond the reference of a settled document
			res.failed++
			return
		}
		delete(waiting, d.seq)
		if !d.ok {
			res.failed++
			return
		}
		first, last := d.first.Sub(t0), d.last.Sub(t0)
		if w.root >= 0 {
			tr.spans[w.root].End = int64(last)
			tr.add("client.ResultStream.Next", first, last, w.root, w.doc)
		}
		res.docs = append(res.docs, docTiming{start: w.start, first: first, last: last, bytes: w.bytes})
		if d.replayed > 0 {
			res.replayed += d.replayed
			res.catchupsMs = append(res.catchupsMs, d.catchupMs)
		}
	}
	// settleUntil books consumer reports until the deadline, or, with
	// untilIdle, until no document is outstanding.
	settleUntil := func(deadline time.Time, untilIdle bool) {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		for !broken && !(untilIdle && len(waiting) == 0) {
			select {
			case d := <-s.done:
				settle(d)
			case <-timer.C:
				return
			}
		}
	}

	for i := 0; !broken; i++ {
		now := time.Since(t0)
		due := now
		if rate > 0 {
			due = time.Duration(float64(i) / rate * float64(time.Second))
		}
		if l.reached(due, i) {
			break
		}
		if rate > 0 {
			// The runtime's timers fire up to a millisecond late, and the
			// lateness is part of every latency (timed from due) as well
			// as reported on its own. Spinning out the last stretch
			// removes it but takes a core from the server, and on two
			// cores that made p50 swing by 30% between runs; sleeping
			// repeats to 1% (README.md, "Open loop").
			settleUntil(t0.Add(due), false)
			now = time.Since(t0)
			res.latenessMs = append(res.latenessMs, (now-due).Seconds()*1e3)
		} else if n := len(res.docs); n > 0 {
			// The generator's own gap: consumer done -> next hand-off.
			res.latenessMs = append(res.latenessMs, (now-res.docs[n-1].last).Seconds()*1e3)
		}
		root := tr.add("doc", due, due, -1, i)
		if rate > 0 {
			tr.add("gen.late", due, now, root, i)
		}
		size, err := s.publish(rate > 0)
		ack := time.Since(t0)
		res.ackUs = append(res.ackUs, (ack-now).Seconds()*1e6)
		tr.add(call, now, ack, root, i)
		res.attempted++
		if err != nil {
			res.failed++
			var api *client.APIError
			if errors.Is(err, server.ErrQueueFull) || errors.As(err, &api) && api.Status == http.StatusTooManyRequests {
				res.rejects++
			}
			continue
		}
		waiting[s.published.Load()] = inflight{start: due, bytes: size, doc: i, root: root}
		res.backlogMax = max(res.backlogMax, len(waiting))
		if rate == 0 {
			settleUntil(time.Now().Add(settleTimeout), true)
		}
	}
	s.severing.Store(false)
	if at := s.backAt.Load(); at != 0 && s.backAt.CompareAndSwap(at, 0) {
		s.back <- struct{}{} // the run is over: the away consumer comes back now
	}
	settleUntil(time.Now().Add(settleTimeout), true)
	// A gap marker is reported, not failed: what it costs shows as documents
	// that never complete. (The seed commit emits spurious "wal unreadable"
	// markers when a replay meets an append in progress; README.md.)
	res.gaps = int(s.gaps.Load() - gaps0)
	res.failed += len(waiting) // never fully delivered
	res.wall = time.Since(t0)
	alloc1, mallocs1 := memCounters()
	res.allocBytes, res.mallocs = alloc1-alloc0, mallocs1-mallocs0
	res.offered = float64(res.attempted) / res.wall.Seconds()
	res.spans = tr.spans
	return res
}

// settleTimeout bounds the wait for a published document's results; a
// document still outstanding then is a failed operation.
const settleTimeout = 30 * time.Second

// close stops the consumer, the broker and the HTTP server and waits for
// each to end.
func (s *served) close() {
	s.closing.Store(true)
	s.severing.Store(false)
	if st := s.stream.Load(); st != nil {
		st.Close()
	}
	s.cancel()
	<-s.consumed
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.broker.Shutdown(ctx)
	_ = s.http.Shutdown(ctx)
	<-s.served
	if s.cfg.DataDir != "" && !s.keepData {
		os.RemoveAll(s.cfg.DataDir)
	}
}
