package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	vitex "repro"
	"repro/internal/obs"
)

// Sentinel errors of the broker API; the HTTP layer maps them to statuses.
var (
	// ErrShutdown rejects work submitted after Shutdown began.
	ErrShutdown = errors.New("server: broker shutting down")
	// ErrQueueFull rejects a publish when the channel's bounded ingest
	// queue has no room — the publisher's back-pressure signal (retry, or
	// publish synchronously so completed documents free slots).
	ErrQueueFull = errors.New("server: channel ingest queue full")
	// ErrNoSubscription reports an unknown subscription id.
	ErrNoSubscription = errors.New("server: no such subscription")
	// ErrNoChannel reports an unknown channel name.
	ErrNoChannel = errors.New("server: no such channel")
	// ErrNotDurable rejects a cursor-resume request against a broker that
	// has no data directory (there is no log to replay from).
	ErrNotDurable = errors.New("server: broker is not durable (no data directory); cursor resume unavailable")
)

// channel is one named feed: a live QuerySet holding the standing
// subscriptions, a bounded ingest queue of arriving documents, and the
// per-subscription result rings. Documents are evaluated strictly in
// arrival order by the channel's drainer (one evaluation in flight per
// channel — so each subscription's result stream is ordered by document),
// while the broker's worker-pool semaphore bounds how many channels
// evaluate at once (cross-document parallelism across channels).
//
//vitex:counters
type channel struct {
	name string
	b    *Broker

	// dir and wal are the channel's durable state (nil/empty for a
	// memory-only broker): every accepted publish is appended to the WAL —
	// before it is acknowledged or evaluated — and the manifest in dir
	// records the standing subscriptions. See wal.go and manifest.go.
	dir string
	wal *walLog

	// mu guards the membership pair (QuerySet contents <-> subs indexing)
	// and ingest admission. Mutations and the per-document view capture
	// take it; evaluation itself runs outside it.
	mu sync.Mutex
	qs *vitex.QuerySet
	// subs is parallel to QuerySet query indexes, and copy-on-write: no
	// element a published header covers is ever written again (appends land
	// past it; removals build a fresh slice), so evaluate takes the header
	// under mu and reads it after letting go.
	subs    []*subscription
	byID    map[string]*subscription
	nextSub int64 //vitex:guardedby=mu
	nextDoc int64 //vitex:guardedby=mu
	closed  bool  //vitex:guardedby=mu
	queue   chan *job

	wg sync.WaitGroup // drainLoop

	// recoveredCursor is the WAL recovery point at boot (0 for a fresh
	// channel): cursors at or below it were replayed from disk, not
	// accepted by this process.
	recoveredCursor int64 //vitex:plain set during recovery before the channel is published

	docsIn        atomic.Int64
	docsFailed    atomic.Int64
	bytesIn       atomic.Int64
	delivered     atomic.Int64
	gaps          atomic.Int64
	replayDocs    atomic.Int64
	replayResults atomic.Int64

	// Latency histograms (always on — recording is three atomic adds and
	// the clock reads are per document or per delivery, never per event).
	// pubAck: publish admission to acknowledgment. pubDeliver: publish
	// admission to the delivery's NDJSON encode on a consumer connection
	// (replays excluded; all of this channel's rings share the broker's
	// slow-consumer policy, which labels the series in the Prometheus
	// view). pubFirst: the same span for the first delivery of each
	// document a connection writes. WAL append/fsync histograms live on
	// the walLog.
	pubAck     obs.Histogram
	pubDeliver obs.Histogram
	pubFirst   obs.Histogram
}

// subscription is one standing query of a channel plus its delivery ring.
type subscription struct {
	id    string
	query string // guarded by ch.mu (Replace rewrites it)
	// replacedAt is the channel's last cursor when query was last replaced
	// (0: never), guarded by ch.mu. Replay cannot re-evaluate documents up
	// to it as they were (replay.go).
	replacedAt int64
	ch         *channel
	ring       *subRing
}

// job is one queued document: its payload, its arrival number, and the
// context its evaluation runs under (broker lifetime, plus — for
// synchronous publishes — the publisher's request).
type job struct {
	seq  int64
	data []byte
	ctx  context.Context
	done chan jobResult // nil for async publishes

	// admitted is the publish handler's entry time (latency histograms);
	// enqueued is the ingest-queue send time (the trace's queue_wait
	// stage); tr is the document's sampled stage trace, nil for the
	// overwhelming majority of publishes.
	admitted time.Time
	enqueued time.Time
	tr       *obs.Trace
}

type jobResult struct {
	results int64
	events  int64
	err     error
}

func newChannel(name string, b *Broker) (*channel, error) {
	c, err := buildChannel(name, b)
	if err != nil {
		return nil, err
	}
	if c.wal != nil {
		// A fresh durable channel starts with an empty manifest on disk, so
		// a crash before the first subscription still recovers the channel
		// (and its WAL'd documents).
		if err := saveManifest(c.dir, &channelManifest{Name: name}); err != nil {
			c.wal.close()
			return nil, err
		}
	}
	c.start()
	return c, nil
}

// buildChannel constructs a channel and, for a durable broker, opens its WAL
// (recovering the cursor from the log tail). It does not start the drain
// loop — recovery adds subscriptions first. The channel is unpublished here,
// so the guarded fields are safe to touch without c.mu.
//
//vitex:locked
func buildChannel(name string, b *Broker) (*channel, error) {
	qs, err := vitex.NewQuerySet()
	if err != nil {
		return nil, err
	}
	c := &channel{
		name:  name,
		b:     b,
		qs:    qs,
		byID:  make(map[string]*subscription),
		queue: make(chan *job, b.cfg.QueueDepth),
	}
	if b.cfg.DataDir != "" {
		c.dir = filepath.Join(channelsDir(b.cfg.DataDir), chanDirName(name))
		wal, err := openWAL(c.dir, b.cfg.WALSegmentBytes, b.cfg.WALRetainSegments, b.cfg.WALSync)
		if err != nil {
			return nil, fmt.Errorf("server: channel %q wal: %w", name, err)
		}
		c.wal = wal
		c.nextDoc = wal.stats().last
		c.recoveredCursor = c.nextDoc
	}
	return c, nil
}

// start launches the drain loop; the channel is live afterwards.
func (c *channel) start() {
	c.wg.Add(1)
	go c.drainLoop()
}

// recoverChannel rebuilds a channel from its manifest: the WAL tail gives
// the document cursor, the manifest gives the standing subscriptions, each
// compiled back into the live QuerySet under its original id. The channel
// is unpublished until Open links it, so c.mu is not needed.
//
//vitex:locked
func recoverChannel(b *Broker, m *channelManifest) (*channel, error) {
	c, err := buildChannel(m.Name, b)
	if err != nil {
		return nil, err
	}
	c.nextSub = m.NextSub
	for _, ms := range m.Subscriptions {
		q, err := vitex.Compile(ms.Query)
		if err != nil {
			c.wal.close()
			return nil, fmt.Errorf("server: channel %q: recompiling %q: %w", m.Name, ms.Query, err)
		}
		if _, err := c.qs.Add(q); err != nil {
			c.wal.close()
			return nil, err
		}
		sub := &subscription{
			id:         ms.ID,
			query:      ms.Query,
			replacedAt: ms.ReplacedAt,
			ch:         c,
			ring:       newSubRing(b.cfg.RingSize, b.cfg.Policy, &c.gaps),
		}
		c.subs = append(c.subs, sub)
		c.byID[sub.id] = sub
	}
	c.start()
	return c, nil
}

// persistLocked rewrites the channel's manifest from the in-memory standing
// state (c.mu held). A no-op for memory-only brokers.
//
//vitex:locked
func (c *channel) persistLocked() error {
	if c.wal == nil {
		return nil
	}
	m := &channelManifest{Name: c.name, NextSub: c.nextSub}
	for _, sub := range c.subs {
		m.Subscriptions = append(m.Subscriptions, manifestSub{ID: sub.id, Query: sub.query, ReplacedAt: sub.replacedAt})
	}
	return saveManifest(c.dir, m)
}

// subscribe compiles query and adds it to the live set. Compilation happens
// outside the lock; only the QuerySet.Add (which compiles nothing twice —
// the engine interns the already-built machines' symbols incrementally) and
// the bookkeeping pair run under it, so churn never blocks on other
// subscribers' compiles.
func (c *channel) subscribe(query string) (*subscription, error) {
	q, err := vitex.Compile(query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrShutdown
	}
	if _, err := c.qs.Add(q); err != nil {
		return nil, err
	}
	c.nextSub++
	sub := &subscription{
		id:    fmt.Sprintf("s%d", c.nextSub),
		query: query,
		ch:    c,
		ring:  newSubRing(c.b.cfg.RingSize, c.b.cfg.Policy, &c.gaps),
	}
	c.subs = append(c.subs, sub)
	c.byID[sub.id] = sub
	if err := c.persistLocked(); err != nil {
		// Roll the membership back: a subscription that is not durable must
		// not exist, or a restart would silently forget it.
		c.qs.Remove(len(c.subs) - 1)
		// Clipped: the next append must not write where sub stood.
		c.subs = slices.Clip(c.subs[:len(c.subs)-1])
		delete(c.byID, sub.id)
		c.nextSub--
		return nil, err
	}
	return sub, nil
}

// indexOfLocked returns sub's current query index (c.mu held).
func (c *channel) indexOfLocked(sub *subscription) int {
	for i, s := range c.subs {
		if s == sub {
			return i
		}
	}
	return -1
}

// unsubscribe removes the subscription and closes its ring; an attached
// consumer drains what is buffered and sees end-of-stream. A document
// already evaluating still delivers the removed query's results (it runs
// against the view captured at its start).
func (c *channel) unsubscribe(id string) error {
	c.mu.Lock()
	sub := c.byID[id]
	if sub == nil {
		c.mu.Unlock()
		return ErrNoSubscription
	}
	idx := c.indexOfLocked(sub)
	if err := c.qs.Remove(idx); err != nil {
		c.mu.Unlock()
		return err
	}
	c.subs = slices.Concat(c.subs[:idx], c.subs[idx+1:])
	delete(c.byID, id)
	// Persistence failure is not rolled back here: the in-memory removal
	// already happened and re-adding would reorder the set. The stale
	// manifest entry is rewritten by the next successful mutation; until
	// then a restart resurrects an unconsumed subscription, which is safe.
	perr := c.persistLocked()
	c.mu.Unlock()
	sub.ring.closeRing()
	return perr
}

// replace swaps the subscription's query, keeping its id, ring and any
// attached consumer. Only the new query is compiled. The cursor it happens at
// is recorded: a later resume gets a gap up to it instead of those documents
// re-evaluated through the new query.
func (c *channel) replace(id, query string) (*subscription, error) {
	q, err := vitex.Compile(query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.byID[id]
	if sub == nil {
		return nil, ErrNoSubscription
	}
	idx := c.indexOfLocked(sub)
	old, oldQuery, oldAt := c.qs.Query(idx), sub.query, sub.replacedAt
	if err := c.qs.Replace(idx, q); err != nil {
		return nil, err
	}
	sub.query = query
	sub.replacedAt = c.nextDoc
	if err := c.persistLocked(); err != nil {
		// Roll the swap back, as subscribe does: a query that is not durable
		// must not answer, or a restart would silently bring the old one back.
		sub.query, sub.replacedAt = oldQuery, oldAt
		return nil, errors.Join(err, c.qs.Replace(idx, old))
	}
	return sub, nil
}

func (c *channel) subscriptionByID(id string) *subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byID[id]
}

// publish admits a document into the bounded ingest queue, assigning its
// arrival number (the channel's WAL cursor). On a durable broker the
// document is appended to the write-ahead log BEFORE the publish is
// acknowledged or the document queued for evaluation: an acknowledged
// document is always a complete, checksummed WAL record, which is the
// invariant the crash-recovery guarantee rests on. wait=true blocks until
// the evaluation completes (or the caller's ctx dies — which also cancels
// the evaluation itself, the publisher-disconnect path) and reports its
// outcome; wait=false returns as soon as the document is durable and
// queued.
func (c *channel) publish(ctx context.Context, data []byte, wait bool) (*PublishResponse, error) {
	jctx, cancel := c.b.jobContext(ctx, wait)
	j := &job{data: data, ctx: jctx, admitted: time.Now()}
	// Sample before the admission lock so the trace's clock covers lock
	// wait; the document number is filled in once assigned, and rejected
	// publishes cancel the trace without emitting.
	j.tr = c.b.tracer.Sample(c.name, 0)
	if wait {
		j.done = make(chan jobResult, 1)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		j.tr.Cancel()
		return nil, ErrShutdown
	}
	// Reserve queue room before assigning a cursor: publish is the only
	// sender and every sender holds c.mu, so a free slot observed here
	// cannot be taken by anyone else before the send below.
	if len(c.queue) == cap(c.queue) {
		c.mu.Unlock()
		cancel()
		j.tr.Cancel()
		return nil, ErrQueueFull
	}
	c.nextDoc++
	j.seq = c.nextDoc
	j.tr.SetDocSeq(j.seq)
	var walNs time.Duration
	if c.wal != nil {
		walStart := time.Now()
		if err := c.wal.append(j.seq, data); err != nil {
			// The record is not durable: reject the publish and give the
			// cursor back (a torn partial write is truncated on the next
			// recovery; the cursor was never acknowledged to anyone).
			c.nextDoc--
			c.mu.Unlock()
			cancel()
			j.tr.Cancel()
			return nil, err
		}
		walNs = time.Since(walStart)
		if j.tr != nil {
			fsyncNs := c.wal.lastFsyncDur()
			j.tr.AddStage(obs.StageWALFsync, fsyncNs)
			j.tr.AddStage(obs.StageWALAppend, walNs-fsyncNs)
		}
	}
	j.enqueued = time.Now()
	j.tr.AddStage(obs.StageAdmission, j.enqueued.Sub(j.admitted)-walNs)
	c.queue <- j
	c.mu.Unlock()
	c.docsIn.Add(1)
	c.bytesIn.Add(int64(len(data)))
	if !wait {
		// Async jobs run under the broker's lifetime context alone; cancel
		// here would kill them. jobContext returned a no-op cancel.
		cancel()
		c.pubAck.Observe(time.Since(j.admitted))
		return &PublishResponse{Channel: c.name, DocSeq: j.seq, Queued: true}, nil
	}
	defer cancel()
	select {
	case res := <-j.done:
		c.pubAck.Observe(time.Since(j.admitted))
		if res.err != nil {
			return &PublishResponse{Channel: c.name, DocSeq: j.seq}, &publishError{seq: j.seq, err: res.err}
		}
		return &PublishResponse{Channel: c.name, DocSeq: j.seq, Results: res.results, Events: res.events}, nil
	case <-ctx.Done():
		// cancel() (deferred) aborts the in-flight evaluation; the drainer
		// finishes the cleanup (gap markers) without us.
		return nil, ctx.Err()
	}
}

// publishError tags an evaluation failure with the document number it
// consumed, so the publisher's structured error and the subscribers' gap
// markers name the same document.
type publishError struct {
	seq int64
	err error
}

func (e *publishError) Error() string { return e.err.Error() }
func (e *publishError) Unwrap() error { return e.err }

// closeIngest stops admission and lets the drainer run the queue dry.
func (c *channel) closeIngest() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.queue)
}

// closeRings ends every subscription's result stream (drain-then-end for
// attached consumers).
func (c *channel) closeRings() {
	c.mu.Lock()
	subs := c.subs
	c.mu.Unlock()
	for _, sub := range subs {
		sub.ring.closeRing()
	}
}

// drainLoop evaluates queued documents strictly in arrival order. The
// broker's semaphore bounds how many channels evaluate simultaneously.
func (c *channel) drainLoop() {
	defer c.wg.Done()
	for j := range c.queue {
		c.b.sem <- struct{}{}
		res := c.evaluate(j)
		<-c.b.sem
		if j.done != nil {
			j.done <- res
		}
	}
}

// evaluate runs one document against the membership in force at its start.
// The view and the subscription slice are captured under one lock, so a
// result's QueryIndex always resolves to the subscription whose machine
// produced it, however the set churns concurrently.
func (c *channel) evaluate(j *job) jobResult {
	traced := j.tr != nil
	var evalStart time.Time
	var ringNs int64
	var wokenBefore int64
	if traced {
		evalStart = time.Now()
		j.tr.AddStage(obs.StageQueueWait, evalStart.Sub(j.enqueued))
		wokenBefore = c.qs.Metrics().Deliveries
	}
	c.mu.Lock()
	view := c.qs.View()
	subs := c.subs
	c.mu.Unlock()

	opts := vitex.Options{Context: j.ctx}
	var results int64
	handedOff := false
	scan, err := view.Evaluate(bytes.NewReader(j.data), opts, func(sr vitex.SetResult) error {
		sub := subs[sr.QueryIndex]
		d := Delivery{
			Type:        DeliveryResult,
			DocSeq:      j.seq,
			Seq:         sr.Seq,
			NodeOffset:  sr.NodeOffset,
			Value:       sr.Value,
			ConfirmedAt: sr.ConfirmedAt,
			DeliveredAt: sr.DeliveredAt,
			pubAt:       j.admitted,
		}
		var pushStart time.Time
		if traced {
			// The delivery carries a reference on the trace; whoever
			// retires it (wire write, drop, replay supersession) releases.
			j.tr.Ref()
			d.tr = j.tr
			d.ringAt = j.tr.SinceStartNs()
			pushStart = time.Now()
		}
		delivered, woke, perr := sub.ring.push(j.ctx, d)
		if woke && !handedOff {
			// The consumer this push woke was readied on this processor:
			// let it write the document's first result now rather than
			// after an idle processor's thread comes to take it. Once per
			// document, so a busy broker pays one yield per document.
			handedOff = true
			runtime.Gosched()
		}
		if traced {
			ringNs += time.Since(pushStart).Nanoseconds()
			if !delivered {
				// Dropped or closed: the delivery never reaches a wire.
				j.tr.Unref()
			} else {
				j.tr.AddDeliveries(1)
			}
		}
		if errors.Is(perr, errSubClosed) {
			// Unsubscribed mid-document: skip it, keep serving the others.
			return nil
		}
		if delivered {
			results++
			c.delivered.Add(1)
		}
		return perr
	})
	events := scan.Events
	if traced {
		evalNs := time.Since(evalStart).Nanoseconds()
		j.tr.AddStage(obs.StageScanDispatch, time.Duration(evalNs-ringNs))
		j.tr.AddStage(obs.StageRingEnqueue, time.Duration(ringNs))
		j.tr.AddEvents(events)
		j.tr.AddMachinesWoken(c.qs.Metrics().Deliveries - wokenBefore)
		// The publish path's reference: the trace emits once every traced
		// delivery retires (immediately, for a document with none).
		j.tr.MarkEnd()
		j.tr.Unref()
	}
	if err != nil {
		// The publisher gets a structured error; every subscriber of the
		// evaluated view gets a gap marker in stream position — an aborted
		// document must never read as a silent stall (or, worse, as a
		// clean document with fewer matches).
		c.docsFailed.Add(1)
		reason := "document aborted: " + err.Error()
		for _, sub := range subs {
			sub.ring.pushGap(j.ctx, Delivery{Type: DeliveryGap, DocSeq: j.seq, Reason: reason})
		}
		return jobResult{results: results, events: events, err: err}
	}
	return jobResult{results: results, events: events}
}

// metrics snapshots the channel's counters.
func (c *channel) metrics() ChannelMetrics {
	c.mu.Lock()
	nsubs := len(c.subs)
	queued := len(c.queue)
	c.mu.Unlock()
	cm := ChannelMetrics{
		Subscriptions: nsubs,
		DocsIn:        c.docsIn.Load(),
		DocsFailed:    c.docsFailed.Load(),
		BytesIn:       c.bytesIn.Load(),
		Results:       c.delivered.Load(),
		Gaps:          c.gaps.Load(),
		Queued:        queued,
		Engine:        c.qs.Metrics(),
	}
	lat := &LatencyMetrics{
		PublishToAck:           c.pubAck.Snapshot().Stats(),
		PublishToDelivery:      c.pubDeliver.Snapshot().Stats(),
		PublishToFirstDelivery: c.pubFirst.Snapshot().Stats(),
	}
	if c.wal != nil {
		app, fs := c.wal.latency()
		appStats, fsStats := app.Stats(), fs.Stats()
		lat.WALAppend, lat.WALFsync = &appStats, &fsStats
	}
	cm.Latency = lat
	if c.wal != nil {
		ws := c.wal.stats()
		cm.WAL = &WALMetrics{
			Bytes:           ws.bytes,
			Segments:        ws.segments,
			FirstCursor:     ws.first,
			LastCursor:      ws.last,
			RecoveredCursor: c.recoveredCursor,
			ReplayDocs:      c.replayDocs.Load(),
			ReplayResults:   c.replayResults.Load(),
		}
	}
	return cm
}
