// Package engine is the shared-dispatch query engine of the reproduction:
// it evaluates any number of TwigM machines over one sequential scan of an
// XML stream, routing each event only to the machines that can react to it.
//
// The paper's motivating scenario (ICDE 2005 §1: stock tickers, personalized
// newspapers) is many standing queries over one feed. Sharing the scan makes
// parsing cost constant in the number of queries, but a broadcast fan-out
// still makes per-event machine work O(#queries). The engine removes that
// factor the same way NFA-based multi-query filters index their
// subscriptions: all queries are compiled against one symbol table
// (sax.Symbols), the scanner stamps every event with the name's integer ID,
// and a NameID-indexed routing table maps each event to the machines whose
// element or attribute tests mention that name. A 100-query set where an
// event concerns 2 queries touches 2 machines.
//
// Routing is sound because a TwigM machine is a no-op on events it has no
// subscription for:
//
//   - StartElement can only push on a name match (or wildcard), and can only
//     feed attribute nodes on an attribute-name match — so the static
//     subscriptions are element names, attribute names and wildcards.
//   - EndElement only pops entries, and only those its element's start tag
//     pushed, so it matters only to the machines that start tag pushed on.
//   - Text only matters to machines with a live text()-parent or
//     string-value entry (or an absolute text() node).
//
// Result fragments contain arbitrary descendant markup, but no machine needs
// to see it: while any woken machine has a fragment open, the router itself
// serializes each event once into one recorder (twigm.Recorder), and a
// machine's fragments are spans of it, made into strings only when delivered.
//
// The dynamic conditions change only inside a delivery, so the engine
// refreshes a machine's routing membership exactly when it delivers an event
// to it.
//
// On top of routing, the engine factors the overlapping structural prefixes
// of its queries into one shared axis-step trie (twigm.CompileShared /
// twigm.Trie): the trie is evaluated once per event by the session, and the
// per-query residual machines anchor into its stacks — so the prefix names
// thousands of overlapping subscriptions share stop being subscriptions of
// every machine, and per-event cost grows sublinearly in the set size. See
// the package comment of internal/twigm's shared.go for the exact-equivalence
// argument, and epoch.go for how grafting/pruning composes with churn.
// Residuals that are one [. = 'literal'] step go one further: those of one
// shape form a value group, one machine evaluated once for all of them that
// emits each result to the members its value selects (value.go).
//
// Evaluation state (machines, scanner, routing sets) lives in pooled
// sessions: a long-lived Engine serving a stream of documents reuses all of
// it, and resets a machine only when a document first wakes it, so a document
// costs what it wakes — an idle machine is neither reset, nor delivered to,
// nor reported on — and steady-state evaluation allocates nothing.
//
// The machine set is dynamic: Add, Remove and Replace mutate a live engine
// between — and safely concurrent with — Stream calls, compiling only the
// changed query. Membership is versioned in immutable epochs (epoch.go);
// each Stream runs against the Snapshot current when it started, and pooled
// sessions resync their per-machine state incrementally when they observe a
// newer epoch.
package engine

import (
	"context"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sax"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// Engine is a live set of compiled machines plus their routing index. It is
// safe for concurrent use: every Stream call checks a private session out of
// an internal pool and runs against the membership snapshot current at its
// start, while Add/Remove/Replace publish new snapshots without recompiling
// untouched machines.
//
//vitex:counters
type Engine struct {
	syms *sax.Symbols
	// share selects prefix-shared compilation (Config).
	share bool //vitex:plain set at construction, read-only afterwards

	// mu serializes mutations (Add/Remove/Replace). Streams never take it:
	// they load cur once and run against that immutable epoch.
	mu  sync.Mutex
	cur atomic.Pointer[epoch]
	// slots maps each live machine, the handle Remove and Replace take, to
	// its slot in cur (guarded by mu).
	slots map[*twigm.Program]int32

	pool pool // evaluation sessions

	// Churn accounting (see Metrics).
	compiles        atomic.Int64
	compactions     atomic.Int64
	trieGrafts      atomic.Int64
	triePrunes      atomic.Int64
	trieCompactions atomic.Int64

	// Dispatch accounting, flushed once per stream from session-local
	// counters (see Metrics).
	events     atomic.Int64
	deliveries atomic.Int64
	triePushes atomic.Int64

	// evalHist records each stream's evaluation cost as ns/event:
	// two clock reads per document, so it is always on.
	evalHist obs.Histogram
}

// EvalHistogram returns the distribution of per-stream evaluation cost in
// nanoseconds per scan event, cumulative over the engine's lifetime.
func (e *Engine) EvalHistogram() obs.Snapshot { return e.evalHist.Snapshot() }

// Config tunes engine construction.
type Config struct {
	// DisablePrefixSharing compiles every query into a full standalone
	// machine instead of factoring common location-path prefixes into the
	// shared trie, and so forms no value groups either (value.go). Sharing
	// is semantically invisible (results are byte-identical either way);
	// disabling it exists for ablation benchmarks and differential tests.
	DisablePrefixSharing bool
}

// New compiles the parsed queries against one shared symbol table and builds
// the routing index, with common query prefixes factored into a shared trie.
// Each query becomes one machine; callers model a union query as one machine
// per branch.
func New(queries ...*xpath.Query) (*Engine, error) {
	return NewConfigured(Config{}, queries...)
}

// NewConfigured is New with explicit configuration.
//
//vitex:cowmut builds the first epoch before the engine escapes
func NewConfigured(cfg Config, queries ...*xpath.Query) (*Engine, error) {
	e := &Engine{syms: sax.NewSymbols(), share: !cfg.DisablePrefixSharing, slots: make(map[*twigm.Program]int32, len(queries))}
	ep := &epoch{seq: 1}
	for _, q := range queries {
		p, err := e.compileLocked(q)
		if err != nil {
			return nil, err
		}
		ep.progs.Append(p)
		e.compiles.Add(1)
	}
	if e.share {
		e.trieGrafts.Add(int64(e.buildTrieLocked(ep)))
	} else {
		for range ep.progs.Len() {
			ep.anchors.Append(-1)
		}
	}
	ep.rebuild()
	e.reslotLocked(ep)
	e.cur.Store(ep)
	return e, nil
}

// Snapshot is an immutable view of the engine's membership at one instant.
// All evaluation runs through a snapshot: machine indexes (opts, stats,
// Programs) are dense positions in the snapshot's insertion order and stay
// coherent however the engine is mutated afterwards.
type Snapshot struct {
	eng *Engine
	ep  *epoch
}

// Snapshot captures the current membership (one atomic load). Callers that
// must pair a Stream with external per-machine bookkeeping take a snapshot
// once and use it for both.
func (e *Engine) Snapshot() Snapshot { return Snapshot{eng: e, ep: e.cur.Load()} }

// Programs returns the live machines in insertion order, in a fresh slice.
func (s Snapshot) Programs() []*twigm.Program {
	out := make([]*twigm.Program, s.ep.live.Len())
	for d := range out {
		out[d] = s.ep.progs.At(int(s.ep.live.At(d)))
	}
	return out
}

// Len returns the number of live machines.
func (s Snapshot) Len() int { return s.ep.live.Len() }

// Programs returns the current live machines in insertion order; see
// Snapshot.Programs.
func (e *Engine) Programs() []*twigm.Program { return e.Snapshot().Programs() }

// Symbols returns the shared table all machines are compiled against.
func (e *Engine) Symbols() *sax.Symbols { return e.syms }

// Len returns the current number of live machines.
func (e *Engine) Len() int { return e.Snapshot().Len() }

// Plan is what one evaluation asks of a snapshot's machines. Machine indexes
// are dense positions in the snapshot's order.
type Plan struct {
	// Options configures every machine alike. Options.EmitFrom receives each
	// result with the index of the machine that produced it; Options.ID is
	// the engine's to fill in.
	Options twigm.Options
	// Unordered, when non-nil, reports the machines that deliver in
	// confirmation order even under Options.Ordered (the branches of a
	// union, which only their caller can put in document order).
	Unordered func(machine int) bool
	// Rows, when non-nil, receives the statistics of what the document woke,
	// once the scan is over. Nil reports nothing, and costs nothing.
	Rows Rows
}

// Rows is where an evaluation's statistics go: one row per query of the
// caller's, whose machines are its branches. Once the scan is over the engine
// takes the rows from Make, puts the shared scan's counters in every one, and
// folds the work of each woken machine into the row Row names for it, as
// MergeStats does: a run's counters, or for a member of a value group the
// group's with its literal's emitted/dropped split (twigm.SplitStats). A row
// no woken machine names keeps the scan's counters only. When EmitFrom fails
// a stream, every woken machine's work counts through the event whose result
// failed: each event is delivered to every machine before its results go out.
type Rows interface {
	// Make returns the rows, zeroed.
	Make() []twigm.Stats
	// Row returns the row of the machine at a dense index.
	Row(machine int) int
}

// Stream evaluates the current membership over one scan of r; it is
// Snapshot().Stream.
func (e *Engine) Stream(ctx context.Context, r io.Reader, plan Plan) (twigm.Stats, error) {
	return e.Snapshot().Stream(ctx, r, plan)
}

// Stream evaluates every machine of the snapshot over one scan of r. What a
// document costs is proportional to the machines it wakes, not to the
// snapshot: a machine is reset, bound to its anchor and given its options the
// first time an event is routed to it, and only those machines see the end of
// the document and report statistics (Plan.Rows), once the scan is over.
//
// The returned Stats carry the shared scan's Events, Elements and MaxDepth
// and nothing else — under routed dispatch a machine does not see every
// event, so every machine reports these scan-level counters. ConfirmedAt and
// DeliveredAt of results are indexed against the shared scan's event clock
// and match what a broadcast evaluation would report.
//
// The scan checks ctx at every event it routes and, in a stretch the
// projection omits, at every batch the scanner hands over empty (at least
// once per 128 scanned events and before every read of the input), so
// cancellation — from a caller's deadline, or from inside an emit callback —
// aborts the evaluation promptly mid-document and returns ctx.Err(). The
// check is a single non-blocking channel poll and is skipped entirely for
// contexts that cannot be canceled (context.Background/TODO), so the hot path
// is unchanged.
func (s Snapshot) Stream(ctx context.Context, r io.Reader, plan Plan) (twigm.Stats, error) {
	return s.StreamVia(ctx, r, plan, nil)
}

// StreamVia is Stream with the scanner's events passed through wrap on their
// way to the engine: wrap receives the pooled session's scanner, already
// reading r and projected to what the snapshot's machines can observe
// (projection.go), and returns the front-end the evaluation runs.
// Differential tests wrap it in saxtest.PoisonDriver, which destroys each
// batch's transient strings the moment the engine has handled it, and may
// clear the scanner's projection (xmlscan.Scanner.Project) to evaluate the
// full stream.
func (s Snapshot) StreamVia(ctx context.Context, r io.Reader, plan Plan, wrap func(sax.Driver) sax.Driver) (twigm.Stats, error) {
	e := s.eng
	ses := e.pool.get()
	if ses == nil {
		ses = newSession(e)
	}
	defer e.pool.put(ses)
	ses.scan.Reset(r)
	ses.scan.Project(s.ep.projection())
	return ses.stream(ctx, e, s.ep, frontEnd(ses.scan, wrap), plan)
}

// pool keeps evaluation sessions between streams: a sync.Pool and one slot
// beside it that the garbage collector does not empty. A sync.Pool drops what
// sat in it through two collections, and what a goroutine put on one P is out
// of reach from another until then; the slot keeps one session for whoever
// streams next, so a session resyncs by deltas and is not rebuilt from
// nothing whenever a collection lands between two documents.
//
// The slot is for an engine that streams. A session costs about 120 KB with
// one query (its scanner's buffers, mostly) and 2.7 MB at 10,000 portal
// queries, so an engine that stops streaming hands the slot's session on to
// the sync.Pool, which then drops it: a sweep looks every idleAfter while the
// slot is full, and an engine idle for two of them keeps no session.
type pool struct {
	last  atomic.Pointer[session]
	used  atomic.Bool // a session was put back since the last sweep
	armed atomic.Bool // a sweep is due
	mu    sync.Mutex  // guards timer
	timer *time.Timer
	more  sync.Pool
}

// idleAfter is how often the sweep of a full slot looks for use.
const idleAfter = time.Second

// get returns a pooled session, nil when there is none. It tries the
// sync.Pool first: a session there is one the collector may drop, while the
// slot's is safe, so with two sessions in use both stay warm. An engine that
// streams one document at a time has one session, and it is the slot's.
func (p *pool) get() *session {
	if s, _ := p.more.Get().(*session); s != nil {
		return s
	}
	return p.last.Swap(nil)
}

// put returns a session to the pool.
func (p *pool) put(s *session) {
	p.used.Store(true)
	if !p.last.CompareAndSwap(nil, s) {
		p.more.Put(s)
		return
	}
	if p.armed.CompareAndSwap(false, true) {
		p.arm()
	}
}

// arm schedules the next sweep. One timer serves the pool's life, so a sweep
// allocates nothing.
func (p *pool) arm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.timer == nil {
		p.timer = time.AfterFunc(idleAfter, p.sweep)
		return
	}
	p.timer.Reset(idleAfter)
}

// sweep hands the slot's session to the sync.Pool when none was put back
// since the last sweep, and looks again later otherwise. A session it takes
// from a stream that just put it back only moves to the sync.Pool.
func (p *pool) sweep() {
	if p.used.Swap(false) {
		p.arm()
		return
	}
	p.armed.Store(false)
	if s := p.last.Swap(nil); s != nil {
		p.more.Put(s)
	}
}

// frontEnd returns the driver an evaluation runs: the scanner, or what wrap
// makes of it.
func frontEnd(scan *xmlscan.Scanner, wrap func(sax.Driver) sax.Driver) sax.Driver {
	if wrap == nil {
		return scan
	}
	return wrap(scan)
}

// stream evaluates ep's machines over one run of drv on this session. Stream
// passes the session's scanner; tests pass it poisoned, or saxtest's reference
// front-end. The session counts the events it is handed; when its scanner
// ran under a projection, the scanner's counts replace those. The projection
// lasts until the scanner's next Reset, so a caller that runs another
// front-end on a session that has streamed Resets the scanner first.
func (ses *session) stream(ctx context.Context, e *Engine, ep *epoch, drv sax.Driver, plan Plan) (twigm.Stats, error) {
	ses.sync(ep)
	ses.reset(plan)
	ses.ctx, ses.done = ctx, ctx.Done()
	start := time.Now()
	err := drv.Run(ses)
	durNs := time.Since(start).Nanoseconds()
	if err == nil && ses.done != nil {
		// A cancellation racing the final events (e.g. an Emit callback
		// canceling on the document's last result) still reports ctx.Err(),
		// so cancel-during-emit is deterministic wherever the result falls.
		err = ses.ctx.Err()
	}
	ses.ctx, ses.done = nil, nil
	if events, elements, maxDepth, ok := ses.scan.Scanned(ses.events); ok {
		// The scanner projected the document: what it omitted counts too.
		ses.events, ses.elements, ses.maxDepth = events, elements, maxDepth
	}
	e.events.Add(ses.events)
	e.deliveries.Add(ses.rt.deliveries)
	e.triePushes.Add(ses.rt.prun.Pushes())
	if ses.events > 0 {
		e.evalHist.ObserveNs(durNs / ses.events)
	}
	scan := twigm.Stats{Events: ses.events, Elements: ses.elements, MaxDepth: ses.maxDepth}
	ses.rt.finish(scan, plan.Rows)
	return scan, err
}

// session is one evaluation's worth of mutable state: the reusable
// scanner and the router over all the machine runs (slot-indexed against the
// epoch it last synced to). Sessions are pooled; between documents the router
// is reset and each run when it next wakes. They survive epoch changes by
// resyncing.
//
//vitex:pooled
type session struct {
	// ep is the epoch the slot-indexed state below matches.
	ep   *epoch //vitex:keep resync state, realigned by sync() per checkout
	rt   router
	scan *xmlscan.Scanner //vitex:keep warmed scanner, Reset(r) per stream by Snapshot.Stream

	// Cancellation for the stream in flight: done is ctx.Done(), cached so
	// the per-event poll is one channel read; nil when the context cannot be
	// canceled. Cleared before the session returns to the pool.
	ctx  context.Context //vitex:keep cleared by stream before pooling
	done <-chan struct{} //vitex:keep cleared by stream before pooling

	// Shared-scan counters: events is the ordinal of the last event handled.
	// Under a projection the scanner counts what it omitted (stream).
	events   int64
	elements int64
	maxDepth int
}

func newSession(e *Engine) *session {
	return &session{scan: xmlscan.NewScannerWith(nil, e.syms)}
}

// sync aligns the session's slot-indexed state with ep. Steady state (no
// mutation since last checkout) is a pointer compare. A session a few epochs
// behind (or ahead: a stream may run an older snapshot) visits only the slots
// the deltas between the two epochs name; its router reads ep's routing
// tables, which cost nothing to adopt. Otherwise its runs are re-keyed by
// program identity, so machines untouched by the mutations — including machines moved
// to new slots by compaction — keep their warmed-up run state; only added or
// replaced machines start fresh runs.
func (s *session) sync(ep *epoch) {
	if s.ep == ep {
		return
	}
	if d, since, ok := changes(s.ep, ep); ok {
		s.rt.rehost(resyncRuns(s.rt.runs, d, since, ep), ep.progs.Len())
		if ep.trie != nil {
			s.rt.prun.Rebind(ep.trie)
		}
	} else {
		s.rt.init(rekeyRuns(s.rt.runs, ep), ep.trie)
	}
	s.ep = ep
}

// resyncRuns updates a session's slot-indexed runs, which match an epoch the
// deltas from d down to since lead from (changes), to match ep: a slot they
// name keeps its run if it still holds the machine the run was started from,
// and gets a fresh run, or none, otherwise. Only routed machines have a run:
// a value group's members share its host's.
func resyncRuns(runs []*twigm.Run, d *delta, since uint64, ep *epoch) []*twigm.Run {
	for len(runs) < ep.progs.Len() {
		runs = append(runs, nil)
	}
	for ; d != nil && d.seq > since; d = d.prev {
		for _, slot := range d.slots {
			if int(slot) < len(runs) { // else added and reclaimed in between
				runs[slot] = runFor(runs[slot], ep, slot)
			}
		}
	}
	return runs
}

// runFor returns the run slot needs under ep: old when it was started from
// the slot's machine, a fresh one when the slot holds another routed machine,
// nil when it holds none.
func runFor(old *twigm.Run, ep *epoch, slot int32) *twigm.Run {
	if int(slot) >= ep.progs.Len() {
		return nil
	}
	p := ep.progs.At(int(slot))
	switch {
	case p == nil || !ep.routed(slot):
		return nil
	case old != nil && old.Program() == p:
		return old
	}
	return p.Start(twigm.Options{})
}

// rekeyRuns rebuilds a session's slot-indexed run slice for a new epoch,
// re-keying existing runs by program identity: machines untouched by the
// mutations — including machines moved to new slots by compaction — keep
// their warmed-up run state; only added or replaced machines start fresh
// runs. It is the resync of a session no delta path leads from.
func rekeyRuns(oldRuns []*twigm.Run, ep *epoch) []*twigm.Run {
	byProg := make(map[*twigm.Program]*twigm.Run, len(oldRuns))
	for _, r := range oldRuns {
		if r != nil {
			byProg[r.Program()] = r
		}
	}
	runs := make([]*twigm.Run, ep.progs.Len())
	for slot := range runs {
		runs[slot] = runFor(byProg[ep.progs.At(slot)], ep, int32(slot))
	}
	return runs
}

// reset starts a new document in O(1): no machine is touched until the router
// first delivers an event to it.
func (s *session) reset(plan Plan) {
	s.events = 0
	s.elements = 0
	s.maxDepth = 0
	s.rt.reset(s.ep, plan)
}

// HandleBatch implements sax.Handler: it counts the scan's shared-level
// quantities and routes each event to the machines subscribed to it, on the
// scan's clock: an event's index is its ordinal, which a projected stream
// skips ahead. Event strings are transient per the sax.Handler lifetime rule;
// the machines clone anything a candidate retains inside the route.
//
// A projecting scanner hands over empty batches while it scans what it omits
// (xmlscan.Scanner.Project); they carry only the cancellation poll, so a
// cancellation ends the scan there too (TestCancelDuringProjectedOutScan).
//
//vitex:hotpath
func (s *session) HandleBatch(evs []sax.Event) error {
	if len(evs) == 0 {
		return s.canceled()
	}
	for i := range evs {
		ev := &evs[i]
		// The cancellation poll is per event: a cancelled stream must
		// deliver no further results, not even from events already queued in
		// the same batch (see TestCancelDuringEmit).
		if err := s.canceled(); err != nil {
			return err
		}
		s.events++
		if ev.Ordinal != 0 {
			s.events = ev.Ordinal
		}
		if ev.Kind == sax.StartElement {
			s.elements++
			if ev.Depth > s.maxDepth {
				s.maxDepth = ev.Depth
			}
		}
		if err := s.rt.route(ev, s.events); err != nil {
			return err
		}
	}
	return nil
}

// canceled is the stream's cancellation poll: a single non-blocking channel
// read, skipped for a context that cannot be canceled.
//
//vitex:hotpath
func (s *session) canceled() error {
	if s.done != nil {
		select {
		case <-s.done:
			return s.ctx.Err()
		default:
		}
	}
	return nil
}

// router routes scan events to the machines of one epoch: by the epoch's
// static subscription tables, the dynamic membership sets, and the per-event
// subscriber scratch.
//
// The router is also the one place a machine is prepared for a document:
// reset bumps a generation and touches no machine, and the first delivery to a
// machine whose stamp is stale (wake) resets its run with the document's
// options, binds its anchor and lists it as woken. A machine the document
// never concerns is never touched, so a document costs what it wakes.
//
// Every result leaves through the router's emission buffer: the runs it wakes
// emit into out, and at the end of each event settle puts the event's
// emissions in delivery order, then hands them to the plan's consumer.
//
//vitex:pooled
type router struct {
	// runs maps slot -> run (nil for tombstoned slots and value-group members
	// other than the host).
	runs []*twigm.Run //vitex:keep rewired by init/rehost on resync; a run is reset when it wakes

	// ep supplies the routing tables, and the slot-indexed anchors, value
	// groups and dense indexes wake reads.
	ep *epoch
	// opts and unordered are the document's Plan: what wake resets a run to.
	// Like ep they are held from reset to finish, not between documents.
	opts      twigm.Options
	unordered func(machine int) bool
	// gen is the document generation; machine i is prepared for the current
	// document iff wokenAt[i] == gen. woken lists those machines, in wake
	// order until EndDocument sorts it.
	gen     uint64
	wokenAt []uint64 //vitex:keep generation stamps: gen only ever grows, so a stamp left by any earlier document is stale
	woken   []int32

	// Dynamic routing sets. pushed lists, by depth, the machines that pushed
	// an entry at the element open at that depth: the machines its end tag
	// pops, and the only ones it matters to. textSet holds machines for which
	// the next text event could matter.
	pushed  [][]int32
	textSet denseSet

	// rec serializes the document once for every machine it wakes while any
	// of them has a fragment open; wake binds each run to it.
	rec twigm.Recorder

	// Per-event dedup of the start-element subscriber union.
	stamps  []int64 //vitex:keep dedup stamps; stamp monotonicity makes stale entries harmless
	stamp   int64   //vitex:keep monotonic epoch for stamps, must never rewind
	scratch []int32 //vitex:keep reusable subscriber buffer, overwritten per event

	// out is the emission buffer, and emit the consumer settle flushes it
	// to: the plan's EmitFrom. collect and isUnordered are the router's
	// methods as the runs call them back, bound once.
	out         []emission
	emit        func(machine int, r twigm.Result) error
	collectFn   func(slot int, r twigm.Result) error //vitex:keep bound once to this router by init
	unorderedFn func(slot int) bool                  //vitex:keep bound once to this router by init

	// prun evaluates the shared prefix trie once per event before any
	// machine delivery; anchored machines read its stacks.
	prun twigm.PrefixRun

	// deliveries counts deliveries this stream (dispatch metrics).
	deliveries int64
}

// init wires the router over runs (indexed by slot); trie is the epoch's
// shared prefix trie (nil without sharing).
func (rt *router) init(runs []*twigm.Run, trie *twigm.Trie) {
	n := len(runs)
	rt.runs = runs
	rt.stamps = make([]int64, n)
	rt.wokenAt = make([]uint64, n)
	rt.clearPushed()
	rt.textSet.init(n)
	if rt.collectFn == nil {
		rt.collectFn, rt.unorderedFn = rt.collect, rt.isUnordered
	}
	if trie != nil {
		rt.prun.Rebind(trie)
	}
}

// rehost points the router at a resynced runs slice and grows the
// slot-indexed scratch to cover nSlots. Scratch never shrinks here: only a compaction renumbers
// slots, and a session crossing one resyncs through init instead.
func (rt *router) rehost(runs []*twigm.Run, nSlots int) {
	rt.runs = runs
	for len(rt.stamps) < nSlots {
		rt.stamps = append(rt.stamps, 0)
		rt.wokenAt = append(rt.wokenAt, 0)
	}
	rt.textSet.grow(nSlots)
}

// reset starts a new document: it bumps the generation, which makes every
// machine's preparation stale at once, and returns the dynamic sets to what
// an unwoken machine set looks like — empty, but for the static text
// subscribers (machines with a root text() node want text from the first
// event on). ep is the epoch the caller synced to.
func (rt *router) reset(ep *epoch, plan Plan) {
	rt.clearPushed()
	rt.textSet.clear()
	for _, i := range ep.rootText {
		rt.textSet.set(i, true)
	}
	rt.rec.Reset()
	rt.prun.ResetStream()
	rt.deliveries = 0
	rt.gen++
	rt.woken = rt.woken[:0]
	rt.ep, rt.opts, rt.unordered = ep, plan.Options, plan.Unordered
	rt.out, rt.emit = rt.out[:0], plan.Options.EmitFrom
	if plan.Options.EmitFrom != nil {
		rt.opts.EmitFrom = rt.collectFn
	}
}

// wake prepares machine i for the current document, on the first delivery to
// it: a reset run with the document's options, bound to the router's recorder,
// to its anchor stack and, when it hosts a value group, to the group's member
// table. Its dynamic memberships follow from the refresh that ends that
// delivery.
//
//vitex:hotpath
func (rt *router) wake(i int32) {
	rt.wokenAt[i] = rt.gen
	rt.woken = append(rt.woken, i)
	g := rt.ep.group(i)
	o := rt.opts
	o.ID = int(i)
	if g == nil && rt.unordered != nil && rt.unordered(int(rt.ep.liveIdx.At(int(i)))) {
		o.Ordered = false
	}
	run := rt.runs[i]
	run.Reset(o)
	run.BindRecorder(&rt.rec)
	if a := rt.ep.anchors.At(int(i)); a >= 0 {
		run.BindAnchor(rt.prun.Stack(a))
	}
	if g != nil {
		var unordered func(int) bool
		if rt.unordered != nil {
			unordered = rt.unorderedFn
		}
		run.BindGroup(g, unordered)
	}
}

// collect is the EmitFrom of every run the router wakes: it parks a result for
// the machine in slot in the emission buffer until the event ends.
//
//vitex:hotpath
func (rt *router) collect(slot int, r twigm.Result) error {
	rt.out = append(rt.out, emission{mach: rt.ep.liveIdx.At(slot), res: r})
	return nil
}

// isUnordered reports whether the machine in slot delivers in confirmation
// order even under Options.Ordered (Plan.Unordered).
func (rt *router) isUnordered(slot int) bool { return rt.unordered(int(rt.ep.liveIdx.At(slot))) }

// settle ends an event that emitted: it puts the event's emissions, out from
// mark on, in delivery order — by machine, each machine's in the order it
// emitted them, which is the order of delivering the event to every machine
// in turn — and hands them to the consumer, stopping at its first error.
//
//vitex:hotpath
func (rt *router) settle(mark int) error {
	tail := rt.out[mark:]
	if !slices.IsSortedFunc(tail, cmpMach) {
		slices.SortStableFunc(tail, cmpMach)
	}
	var err error
	for i := range tail {
		if err = rt.emit(int(tail[i].mach), tail[i].res); err != nil {
			break
		}
	}
	clear(tail) // the consumer's now: the buffer keeps none of its strings
	rt.out = rt.out[:0]
	return err
}

// finish ends the document for the machines it woke: it fills the plan's
// rows, when there are any; then the runs let go of the document (their emit
// hook and trace writer), and so does the router. A pooled session keeps
// nothing of a document it has finished, however long the machines that
// document woke then stay idle.
func (rt *router) finish(scan twigm.Stats, rows Rows) {
	if rows != nil {
		rt.fill(rows.Make(), rows, scan)
	}
	for _, i := range rt.woken {
		rt.runs[i].Detach()
	}
	rt.ep, rt.opts, rt.unordered, rt.emit = nil, twigm.Options{}, nil, nil
}

// fill puts the scan's counters in every row, then adds each woken machine's
// work to its row (Rows). A value group splits its counters once for all the
// literals that confirmed nothing, and once more for each literal that did.
//
//vitex:hotpath
func (rt *router) fill(rows []twigm.Stats, of Rows, scan twigm.Stats) {
	for i := range rows {
		rows[i].Events, rows[i].Elements, rows[i].MaxDepth = scan.Events, scan.Elements, scan.MaxDepth
	}
	for _, i := range rt.woken {
		run := rt.runs[i]
		st := run.Stats()
		g := run.Group()
		if g == nil {
			addWork(&rows[of.Row(int(rt.ep.liveIdx.At(int(i))))], &st)
			continue
		}
		miss, hit := twigm.SplitStats(st, 0), twigm.Stats{}
		for b := range int32(g.Buckets()) {
			split := &miss
			if hits := run.Hits(b); hits > 0 {
				hit = twigm.SplitStats(st, hits)
				split = &hit
			}
			for _, m := range g.Members(b) {
				addWork(&rows[of.Row(int(rt.ep.liveIdx.At(int(m))))], split)
			}
		}
	}
}

// deliver hands the event to machine i — waking it if this is the document's
// first delivery to it — then refreshes i's dynamic routing memberships (a
// delivery is the only point its state can change): a start tag it pushed on
// files it for that element's end tag, and its interest in text is read anew.
//
//vitex:hotpath
func (rt *router) deliver(i int32, ev *sax.Event, idx int64) error {
	if rt.wokenAt[i] != rt.gen {
		rt.wake(i)
	}
	rt.deliveries++
	run := rt.runs[i]
	live := run.LiveEntries()
	err := run.HandleRouted(ev, idx)
	if run.LiveEntries() > live {
		rt.pushedAt(ev.Depth, i)
	}
	rt.textSet.set(i, run.WantsText())
	return err
}

// pushedAt files machine i, which pushed on the start tag at depth, for that
// element's end tag. A machine receives a start tag once, so it is filed
// once.
//
//vitex:hotpath
func (rt *router) pushedAt(depth int, i int32) {
	for len(rt.pushed) <= depth {
		rt.pushed = append(rt.pushed, nil)
	}
	rt.pushed[depth] = append(rt.pushed[depth], i)
}

// clearPushed empties every depth's list: no element is open.
func (rt *router) clearPushed() {
	for d := range rt.pushed {
		rt.pushed[d] = rt.pushed[d][:0]
	}
}

// route dispatches one scan event (1-based shared index idx) to the routed
// machines subscribed to it, in ascending machine order, and settles what
// they emitted. The shared prefix trie is evaluated around the machine
// deliveries: pushed before them (an anchored machine's axis check may read an
// entry opened by this very event) and popped after them, mirroring how a
// machine's own prefix entries would outlive its deeper entries within the
// event. The recorder is driven around them too: text and end tags are
// serialized before the deliveries that may complete a fragment, start tags
// after the deliveries that may begin one.
//
//vitex:hotpath
func (rt *router) route(ev *sax.Event, idx int64) error {
	mark := len(rt.out)
	rt.rec.Before(ev)
	var slots []int32
	switch ev.Kind {
	case sax.StartElement:
		rt.prun.StartElement(ev)
		slots = rt.startSubscribers(ev)
	case sax.EndElement:
		// The machines the element's start tag pushed on, which the end tag
		// pops; it pushes nothing, so the list is iterated in place.
		if ev.Depth < len(rt.pushed) {
			slots = sortSlots(rt.pushed[ev.Depth])
			rt.pushed[ev.Depth] = slots[:0]
		}
	case sax.Text:
		slots = rt.snapshot(&rt.textSet)
	case sax.EndDocument:
		// Only what the document woke has end-of-document invariants that can
		// fail; machines check them in machine order like every other
		// delivery.
		slices.Sort(rt.woken)
		slots = rt.woken
	}
	// StartDocument goes to nobody: a machine starts its document at wake.
	var err error
	for _, i := range slots {
		if err = rt.deliver(i, ev, idx); err != nil {
			break
		}
	}
	if err == nil {
		if ev.Kind == sax.EndElement {
			rt.prun.EndElement(ev.Depth)
		}
		rt.rec.After(ev)
	}
	if len(rt.out) > mark {
		if serr := rt.settle(mark); err == nil {
			err = serr
		}
	}
	return err
}

// startSubscribers collects, deduplicates and orders the routed machines
// that must see a start-element event: subscribers of the element name,
// wildcard machines and subscribers of any attribute name present. Delivery
// is in machine order, matching what a broadcast fan-out would do, so
// interleavings are reproducible. An event without routing information (a
// name without a symbol ID) goes to every machine.
//
//vitex:hotpath
func (rt *router) startSubscribers(ev *sax.Event) []int32 {
	rt.stamp++
	out := rt.scratch[:0]
	broadcast := false
	if id := ev.NameID; id == sax.SymNone {
		// Producer without a symbol table: no routing information.
		broadcast = true
	} else if id > 0 && int(id) < rt.ep.elemSubs.Len() {
		out = rt.appendNew(out, rt.ep.elemSubs.At(int(id)))
	}
	for ai := range ev.Attrs {
		if id := ev.Attrs[ai].NameID; id == sax.SymNone {
			broadcast = true
		} else if id > 0 && int(id) < rt.ep.attrSubs.Len() {
			out = rt.appendNew(out, rt.ep.attrSubs.At(int(id)))
		}
	}
	if broadcast {
		out = out[:0]
		for i, run := range rt.runs {
			if run != nil {
				out = append(out, int32(i))
			}
		}
		rt.scratch = out
		return out
	}
	out = sortSlots(rt.appendNew(out, rt.ep.wild))
	rt.scratch = out
	return out
}

// appendNew appends the members of list not yet stamped this event. A method
// rather than a closure inside startSubscribers: the closure captured out by
// reference and allocated per start-element (hotalloc caught it).
//
//vitex:hotpath
func (rt *router) appendNew(out, list []int32) []int32 {
	for _, i := range list {
		if rt.stamps[i] != rt.stamp {
			rt.stamps[i] = rt.stamp
			out = append(out, i)
		}
	}
	return out
}

// snapshot copies the members of a dynamic set into the scratch buffer in
// machine order, so deliveries can mutate the set while we iterate.
//
//vitex:hotpath
func (rt *router) snapshot(d *denseSet) []int32 {
	rt.scratch = sortSlots(append(rt.scratch[:0], d.items...))
	return rt.scratch
}

// sortSlots puts slots in machine order, in place. Insertion sort: the
// machines one event concerns are few by design.
//
//vitex:hotpath
func sortSlots(out []int32) []int32 {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// emission is one result in the emission buffer, with the dense index of
// the machine it is for (dense order is slot order).
type emission struct {
	mach int32
	res  twigm.Result
}

func cmpMach(a, b emission) int { return int(a.mach) - int(b.mach) }

// denseSet is a set of machine indexes with O(1) insert/remove and
// allocation-free iteration: items is the members in arbitrary order, pos
// maps a machine to its slot (-1 when absent).
type denseSet struct {
	items []int32
	pos   []int32
}

func (d *denseSet) init(n int) {
	d.items = make([]int32, 0, n)
	d.pos = make([]int32, n)
	for i := range d.pos {
		d.pos[i] = -1
	}
}

// grow extends the position index to cover n slots (members unchanged).
func (d *denseSet) grow(n int) {
	for len(d.pos) < n {
		d.pos = append(d.pos, -1)
	}
}

func (d *denseSet) clear() {
	for _, i := range d.items {
		d.pos[i] = -1
	}
	d.items = d.items[:0]
}

//vitex:hotpath
func (d *denseSet) set(i int32, in bool) {
	p := d.pos[i]
	if in == (p >= 0) {
		return
	}
	if in {
		d.pos[i] = int32(len(d.items))
		d.items = append(d.items, i)
		return
	}
	last := d.items[len(d.items)-1]
	d.items[p] = last
	d.pos[last] = p
	d.items = d.items[:len(d.items)-1]
	d.pos[i] = -1
}

// MergeStats folds the statistics of one machine into dst, the statistics of
// the query it evaluates a branch of (a union query runs as several machines
// over one shared scan): counters sum, per-machine peaks add (they are
// simultaneous), live-candidate peaks take the maximum, and scan-level
// counters (Events, Elements, MaxDepth) pass through from the shared scan.
func MergeStats(dst *twigm.Stats, s twigm.Stats) {
	dst.Events, dst.Elements, dst.MaxDepth = s.Events, s.Elements, s.MaxDepth
	addWork(dst, &s)
}

// addWork is MergeStats without the scan-level counters.
func addWork(dst, s *twigm.Stats) {
	dst.Pushes += s.Pushes
	dst.Pops += s.Pops
	dst.FlagProps += s.FlagProps
	dst.CandMoves += s.CandMoves
	dst.CandidatesCreated += s.CandidatesCreated
	dst.CandidatesEmitted += s.CandidatesEmitted
	dst.CandidatesDropped += s.CandidatesDropped
	dst.PrunedPushes += s.PrunedPushes
	dst.PeakStackEntries += s.PeakStackEntries
	dst.PeakLiveCandidates = max(dst.PeakLiveCandidates, s.PeakLiveCandidates)
	dst.PeakBufferedBytes += s.PeakBufferedBytes
}
