// Parallel sharded evaluation: the multi-core mode of the shared-dispatch
// engine.
//
// Serial routed dispatch (engine.go) made per-event machine work
// proportional to the interested queries, but one goroutine still scans,
// routes and runs every machine — on a large standing set the paper's
// many-subscriptions scenario leaves every core but one idle. This file
// splits the pipeline: a scan goroutine parses the stream and stamps events
// into fixed-size pooled batches, N workers each own a static shard of the
// machines (machine i belongs to shard i mod N) and route every batch
// against their shard only, and the caller's goroutine merges the per-shard
// result streams back into the exact serial emission order.
//
// Determinism is the design constraint: parallel evaluation must be
// byte-identical to the serial routed run — same Results, same Seq numbers,
// same ConfirmedAt/DeliveredAt clocks, same interleaving of emissions across
// machines (union dedup picks the first branch to emit; Ordered flushes
// mid-stream). Three properties deliver it:
//
//  1. A machine's state trajectory depends only on the events delivered to
//     it and the shared event clock. Workers deliver exactly the events the
//     serial router would (the routing decision for machine i reads only
//     machine i's state and static tables), with the clock pinned per event
//     via Run.HandleRouted — so per-machine outputs are identical.
//  2. Serial emission order is (event index, machine index, per-machine
//     emission order): the serial loop delivers each event to its
//     subscribers in ascending machine order, and any emission happens
//     inside some delivery. Each worker processes events in order and its
//     shard machines in ascending order, so each shard's emission stream is
//     already sorted by that key.
//  3. Workers emit one result chunk per batch (empty chunks included), so
//     the merger can walk batches in lockstep and k-way-merge the shard
//     streams by (event index, machine index) — ties are impossible across
//     shards because a machine lives in exactly one — invoking the caller's
//     Emit callbacks sequentially from one goroutine, exactly as the serial
//     engine would.
//
// Batches, worker sessions, machine runs and routing tables are pooled per
// Engine; the per-stream cost on top of the serial path is one pair of
// channels per worker plus the emission buffers results pass through.
package engine

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/sax"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
)

// batchSize is the number of events stamped into one batch. Large enough to
// amortize channel hand-off; incremental delivery does not depend on it —
// results reach the caller at batch granularity, and a partial batch is
// dispatched before every read of the input (producer.Read).
const batchSize = 512

// errAborted is the sentinel the producer returns to stop the scan after a
// downstream failure; it never escapes to the caller.
var errAborted = errors.New("engine: parallel evaluation aborted")

// StreamParallel evaluates every machine of the snapshot over one scan of r
// using the given number of worker goroutines (workers <= 0 means
// GOMAXPROCS). Results, statistics, per-query Seq numbers and
// ConfirmedAt/DeliveredAt clocks are byte-identical to Stream; the plan's
// EmitFrom is invoked sequentially from the calling goroutine in the serial
// emission order. Evaluations with a Trace writer, fewer than two machines or
// fewer than two workers fall back to the serial path.
//
// The scan goroutine checks ctx at every event and the merge loop before
// every emission, so cancellation — from a caller's deadline, or from inside
// an emit callback — aborts the evaluation promptly mid-document and returns
// ctx.Err(). Contexts that cannot be canceled cost nothing on the scan path.
func (s Snapshot) StreamParallel(ctx context.Context, r io.Reader, plan Plan, workers int) (twigm.Stats, error) {
	return s.streamParallel(ctx, r, plan, workers, nil)
}

// streamParallel is StreamParallel with an optional front-end wrapper
// (StreamVia).
func (s Snapshot) streamParallel(ctx context.Context, r io.Reader, plan Plan, workers int, wrap func(sax.Driver) sax.Driver) (twigm.Stats, error) {
	e, ep := s.eng, s.ep
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ep.live.Len() {
		workers = ep.live.Len()
	}
	if workers < 2 || plan.Options.Trace != nil {
		return s.streamVia(ctx, r, plan, wrap)
	}

	ps := e.ppool.get()
	if ps == nil || ps.nworkers != workers {
		ps = newPsession(e, workers)
	}
	defer e.ppool.put(ps)
	// The scanner reads its input through the producer, which dispatches the
	// events it holds before every read (producer.Read).
	ps.scan.Reset(&ps.prod)
	return ps.stream(ctx, ep, frontEnd(ps.scan, wrap), r, plan)
}

// stream evaluates ep's machines on this session over one run of drv, a
// front-end that reads src through the session's producer.
func (ps *psession) stream(ctx context.Context, ep *epoch, drv sax.Driver, src io.Reader, plan Plan) (twigm.Stats, error) {
	e := ps.eng
	ps.sync(ep)
	ps.reset(plan)
	emit := plan.Options.EmitFrom
	done := ctx.Done()
	prod := &ps.prod
	prod.src, prod.ctx, prod.done = src, ctx, done
	defer func() { prod.src, prod.ctx, prod.done = nil, nil, nil }()

	// Start the shard workers and the scan.
	var wg sync.WaitGroup
	for _, w := range ps.workers {
		wg.Add(1)
		go func(w *pworker) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	var scanErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		scanErr = drv.Run(prod)
		prod.finish()
	}()

	// Merge: one chunk per worker per batch, k-way merged by
	// (event index, machine index).
	var emitErr error
	fronts := make([]resultChunk, len(ps.workers))
	for {
		open := false
		for wi, w := range ps.workers {
			c, ok := <-w.out
			if ok {
				open = true
			}
			fronts[wi] = c
		}
		if !open {
			break
		}
		if emitErr != nil {
			continue // draining after a failed Emit
		}
		for {
			best := -1
			for wi := range fronts {
				f := &fronts[wi]
				if f.next >= len(f.emissions) {
					continue
				}
				if best < 0 || less(&f.emissions[f.next], &fronts[best].emissions[fronts[best].next]) {
					best = wi
				}
			}
			if best < 0 {
				break
			}
			em := &fronts[best].emissions[fronts[best].next]
			fronts[best].next++
			if done != nil {
				// Cancellation (possibly from the previous emit call)
				// stops delivery before the next result goes out.
				select {
				case <-done:
					emitErr = ctx.Err()
					prod.abort.Store(true)
				default:
				}
				if emitErr != nil {
					break
				}
			}
			if err := emit(int(em.mach), em.res); err != nil {
				emitErr = err
				prod.abort.Store(true)
				break
			}
		}
	}
	wg.Wait()

	e.events.Add(prod.events)
	var deliveries, triePushes int64
	for _, w := range ps.workers {
		deliveries += w.rt.deliveries
		triePushes += w.rt.prun.Pushes()
	}
	e.deliveries.Add(deliveries)
	e.triePushes.Add(triePushes)

	scan := twigm.Stats{Events: prod.events, Elements: prod.elements, MaxDepth: prod.maxDepth}
	for _, w := range ps.workers {
		w.rt.finish(scan, plan.Stats)
	}
	for _, w := range ps.workers {
		if w.failed != nil {
			return scan, w.failed
		}
	}
	if emitErr != nil {
		return scan, emitErr
	}
	if scanErr != nil && scanErr != errAborted {
		return scan, scanErr
	}
	if done != nil {
		// As in the serial path: a cancellation racing the final events is
		// still reported, so cancel-during-emit is deterministic wherever
		// the result falls in the document.
		if err := ctx.Err(); err != nil {
			return scan, err
		}
	}
	return scan, nil
}

// less orders emissions by the serial emission key: the event during whose
// delivery they were emitted (DeliveredAt), then the machine.
func less(a, b *emission) bool {
	if a.res.DeliveredAt != b.res.DeliveredAt {
		return a.res.DeliveredAt < b.res.DeliveredAt
	}
	return a.mach < b.mach
}

// resultChunk is one batch's worth of one shard's emissions, already sorted
// by the serial key.
type resultChunk struct {
	emissions []emission
	next      int
}

// eventBatch is a pooled, fixed-capacity slice of scan events. Element names
// are stable interned strings; attribute slices, Text and attribute values
// die when the front-end's HandleBatch call returns (sax.Handler) — long
// before the shard workers read the batch — so the producer copies them into
// the batch's attrs and chars arenas. refs counts the workers still reading
// the batch; the last one returns it to the freelist.
//
//vitex:pooled
type eventBatch struct {
	base   int64 //vitex:keep assigned by HandleBatch when the first event lands
	events []sax.Event
	attrs  []sax.Attr
	chars  []byte
	refs   atomic.Int32 //vitex:keep zero when freed (dispatch sets, workers decrement)
}

// reset truncates the batch's arenas for reuse, keeping their capacity.
func (b *eventBatch) reset() {
	b.events = b.events[:0]
	b.attrs = b.attrs[:0]
	b.chars = b.chars[:0]
}

// copied copies s into the batch's character arena and returns a string view
// of the copy without a header allocation; the view lives as long as the
// batch holds it (arena growth may move the backing array, but existing
// views pin the old one). Used only for transient scanner strings.
//
//vitex:hotpath
func (b *eventBatch) copied(s string) string {
	if s == "" {
		return ""
	}
	st := len(b.chars)
	b.chars = append(b.chars, s...)
	c := b.chars[st:]
	return unsafe.String(&c[0], len(c))
}

// psession is one parallel evaluation's worth of mutable state: the shard
// workers (each a router over its shard with shard-filtered tables, all over
// one slice of machine runs slot-indexed against the epoch last synced to),
// the reusable scanner and the batch freelist. Pooled per Engine. Runs, routing tables,
// dynamic sets and batches are all retained across streams; the per-stream
// cost is one pair of channels per worker plus whatever emission buffers
// results need. Across epochs the session resyncs
// incrementally: a mutation rebuilds routing state only in the shards whose
// membership changed (slot i belongs to shard i mod N, so an Add touches
// exactly one shard).
//
//vitex:pooled
type psession struct {
	eng *Engine //vitex:keep engine identity, constant for the session's life
	// ep is the epoch the slot-indexed state below matches.
	ep       *epoch           //vitex:keep resync state, realigned by sync() per checkout
	nworkers int              //vitex:keep construction constant (pool lookup key)
	scan     *xmlscan.Scanner //vitex:keep warmed scanner, Reset onto the producer per stream by StreamParallel
	workers  []*pworker
	free     chan *eventBatch //vitex:keep batch freelist, survives streams by design
	prod     producer
}

// pworker owns the machines of one shard: a router restricted to the shard
// (tables owned by the worker, rebuilt when a resync changes the shard's
// machines), whose emission buffer it ships to the merge once per batch, and
// the channels batches and results flow through.
//
//vitex:pooled
type pworker struct {
	ps *psession //vitex:keep owning session, constant for the worker's life
	rt router

	failed error

	in  chan *eventBatch
	out chan resultChunk
}

// reset prepares the worker for a new stream: the channels were closed by the
// previous stream, and the router starts a new document keeping the shard's
// results for the merge.
func (w *pworker) reset(ep *epoch, plan Plan) {
	w.failed = nil
	w.in = make(chan *eventBatch, 4)
	w.out = make(chan resultChunk, 8)
	w.rt.reset(ep, plan, false)
}

func newPsession(e *Engine, workers int) *psession {
	ps := &psession{
		eng:      e,
		nworkers: workers,
		scan:     xmlscan.NewScannerWith(nil, e.syms),
		free:     make(chan *eventBatch, 4*workers+4),
	}
	for wi := 0; wi < workers; wi++ {
		ps.workers = append(ps.workers, &pworker{ps: ps, rt: router{shard: int32(wi), shards: int32(workers)}})
	}
	ps.prod.ps = ps
	return ps
}

// shardOf maps a machine slot to the worker that owns it. Static sharding by
// slot keeps a machine on one worker across its lifetime (epochs preserve
// slots outside compaction), which is what makes incremental resync local.
func (ps *psession) shardOf(slot int32) int { return int(slot) % ps.nworkers }

// sync aligns the session's slot-indexed state with ep. Steady state is a
// pointer compare. A session the deltas lead from resyncs its runs through
// them (machines the mutations left alone keep their warmed-up state), and
// only the shards holding a slot whose routed machine they changed rebuild
// their routing tables — recorded in the engine's ShardRebalances metric.
// Otherwise the runs are re-keyed by program identity and every shard
// rebuilds.
func (ps *psession) sync(ep *epoch) {
	if ps.ep == ep {
		return
	}
	old := ps.ep
	ps.ep = ep
	d, since, ok := changes(old, ep)
	if !ok {
		runs := rekeyRuns(ps.workers[0].rt.runs, ep)
		for wi, w := range ps.workers {
			r, trieIDs := ps.shardRoutes(ep, wi)
			w.rt.init(runs, r, ep.trie, trieIDs)
		}
		if old != nil {
			ps.eng.shardRebalances.Add(int64(len(ps.workers)))
		}
		return
	}
	// A value group changing hosts moves its routes. Anchors move only with
	// their programs here: a trie compaction starts a new delta chain.
	dirty := make([]bool, ps.nworkers)
	for d := d; d != nil && d.seq > since; d = d.prev {
		for _, slot := range d.slots {
			if routedAt(old, slot) != routedAt(ep, slot) {
				dirty[ps.shardOf(slot)] = true
			}
		}
	}
	runs := resyncRuns(ps.workers[0].rt.runs, d, since, ep)
	rebuilt := int64(0)
	for wi, w := range ps.workers {
		w.rt.rehost(runs, ep.progs.Len())
		if !dirty[wi] {
			// Membership unchanged: the shard keeps its tables and its trie
			// reference. Its machines and their anchors are unchanged, and
			// published tries never mutate nodes in place, so the old trie
			// answers identically for this shard's anchor paths.
			continue
		}
		r, trieIDs := ps.shardRoutes(ep, wi)
		w.rt.routes = r
		if ep.trie != nil {
			w.rt.prun.Rebind(ep.trie, trieIDs)
		}
		rebuilt++
	}
	ps.eng.shardRebalances.Add(rebuilt)
}

// routedAt returns the machine ep routes at slot, nil for none.
func routedAt(ep *epoch, slot int32) *twigm.Program {
	if int(slot) >= ep.progs.Len() {
		return nil
	}
	if p := ep.progs.At(int(slot)); p != nil && ep.routed(slot) {
		return p
	}
	return nil
}

// shardRoutes builds shard wi's routing tables from ep: the routes of the
// routed machines whose slots hash to it, and its trie filter. Sharding the
// trie by subtree, the worker evaluates only the trie nodes on its own
// machines' anchor paths (ancestors included, so anchor compatibility checks
// see their full chain); other subtrees cost it nothing.
func (ps *psession) shardRoutes(ep *epoch, wi int) (r routes, trieIDs []bool) {
	if ep.trie != nil {
		trieIDs = make([]bool, ep.trie.NumIDs())
	}
	for slot := int32(wi); int(slot) < ep.progs.Len(); slot += int32(ps.nworkers) {
		p := routedAt(ep, slot)
		if p == nil {
			continue
		}
		r.route(slot, p)
		for id := ep.anchors.At(int(slot)); trieIDs != nil && id >= 0; id = ep.trie.Parent(id) {
			if trieIDs[id] {
				break // path above already marked
			}
			trieIDs[id] = true
		}
	}
	return r, trieIDs
}

// reset prepares the pooled session for a new stream: every shard's router
// starts a new document, channels are re-created (the previous stream closed
// them). No machine is touched; the routers wake them on first delivery.
func (ps *psession) reset(plan Plan) {
	for _, w := range ps.workers {
		w.reset(ps.ep, plan)
	}
	ps.prod.reset()
}

// ---- producer (scan side) ----

// producer sits on both sides of the scan goroutine's front-end. As the
// sax.Handler it stamps events into batches, maintains the shared-scan
// counters, and hands full batches to every worker; as the io.Reader the
// front-end pulls its input through, it dispatches a partial batch before
// every read, so the workers (and through them the caller's Emit) see
// everything the bytes read so far prove while the input stalls.
//
//vitex:pooled
type producer struct {
	ps       *psession //vitex:keep owning session, constant for the producer's life
	src      io.Reader // the stream's input; set per stream by psession.stream
	cur      *eventBatch
	events   int64
	elements int64
	maxDepth int
	abort    atomic.Bool

	// Cancellation for the stream in flight: done is ctx.Done(), polled per
	// event; nil when the context cannot be canceled. Cleared when the
	// session returns to the pool.
	ctx  context.Context //vitex:keep cleared by psession.stream before pooling
	done <-chan struct{} //vitex:keep cleared by psession.stream before pooling
}

func (p *producer) reset() {
	p.src = nil
	p.cur = nil
	p.events = 0
	p.elements = 0
	p.maxDepth = 0
	p.abort.Store(false)
}

func (p *producer) batch() *eventBatch {
	select {
	case b := <-p.ps.free:
		b.reset()
		return b
	default:
		return &eventBatch{
			events: make([]sax.Event, 0, batchSize),
			attrs:  make([]sax.Attr, 0, 2*batchSize),
		}
	}
}

// Read implements io.Reader over the stream's input. A read may block for as
// long as the input's producer likes, so whatever events are in hand go to
// the workers first.
func (p *producer) Read(b []byte) (int, error) {
	if p.cur != nil {
		p.dispatch()
	}
	return p.src.Read(b)
}

// HandleBatch implements sax.Handler: the front-end hands over arrays of
// events whose Text/Attr.Value strings and Attrs slices die when this call
// returns, so every event is copied by value with its transient content
// re-homed into the current eventBatch's arenas (names are interned and stay
// as-is). The abort/cancellation poll runs once per incoming array, which
// delays an abort by at most one front-end batch.
//
//vitex:hotpath
func (p *producer) HandleBatch(evs []sax.Event) error {
	if p.abort.Load() {
		return errAborted
	}
	if p.done != nil {
		select {
		case <-p.done:
			return p.ctx.Err()
		default:
		}
	}
	for i := range evs {
		ev := &evs[i]
		p.events++
		if ev.Kind == sax.StartElement {
			p.elements++
			if ev.Depth > p.maxDepth {
				p.maxDepth = ev.Depth
			}
		}
		if p.cur == nil {
			p.cur = p.batch()
			p.cur.base = p.events
		}
		b := p.cur
		e := *ev
		e.Text = b.copied(ev.Text)
		if len(ev.Attrs) > 0 {
			start := len(b.attrs)
			b.attrs = append(b.attrs, ev.Attrs...)
			e.Attrs = b.attrs[start:len(b.attrs):len(b.attrs)]
			for j := range e.Attrs {
				e.Attrs[j].Value = b.copied(e.Attrs[j].Value)
			}
		}
		b.events = append(b.events, e)
		if len(b.events) == batchSize {
			p.dispatch()
		}
	}
	return nil
}

// dispatch hands the current batch to every worker.
//
//vitex:hotpath
func (p *producer) dispatch() {
	b := p.cur
	p.cur = nil
	b.refs.Store(int32(len(p.ps.workers)))
	for _, w := range p.ps.workers {
		w.in <- b
	}
}

// finish flushes the trailing partial batch and closes the worker inputs.
func (p *producer) finish() {
	if p.cur != nil && len(p.cur.events) > 0 {
		p.dispatch()
	}
	p.cur = nil
	for _, w := range p.ps.workers {
		close(w.in)
	}
}

// ---- worker (shard side) ----

// loop consumes batches until the producer closes the input, emitting one
// result chunk per batch. After a machine failure the worker keeps draining
// (and releasing) batches so the producer and merger never block, but stops
// delivering events.
//
//vitex:hotpath
func (w *pworker) loop() {
	for b := range w.in {
		if w.failed == nil {
			for i := range b.events {
				if err := w.rt.route(&b.events[i], b.base+int64(i)); err != nil {
					w.failed = err
					break
				}
			}
		}
		if b.refs.Add(-1) == 0 {
			select {
			case w.ps.free <- b:
			default:
			}
		}
		w.out <- resultChunk{emissions: w.rt.out}
		w.rt.out = nil
	}
	close(w.out)
}
