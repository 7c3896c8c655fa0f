package vitex

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/cow"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// QuerySet evaluates several compiled queries over one XML stream in a
// single sequential scan — the subscription scenario of the paper's
// motivation (stock tickers, personalized newspapers: many standing queries,
// one feed). All machines are linked against one shared symbol table and an
// engine-level routing index maps each event to the machines whose name
// tests mention it, so the per-event cost is proportional to the number of
// interested queries, not the size of the set. Equality subscriptions of one
// shape (…/f17[. = 'v3'] for many values) are evaluated together and routed
// by value, so an element wakes only the subscriptions whose literal is its
// value. Evaluation state is pooled:
// a long-lived QuerySet serving a stream of documents reuses its machines,
// scanner and buffers, and a standing query a document never concerns costs
// that document nothing — no reset, no delivery, no allocation. What an
// Evaluate call allocates is a constant handful of small objects and the
// results themselves; Stream adds the []Stats it returns (one entry per
// query), made after the scan.
//
// What a standing query holds between documents is its source and one
// compiled program per branch, a few flat arrays; the set keeps no parse
// tree. Every garbage collection marks the standing set, and at 10,000 portal
// queries it is about 4 heap objects per query (TestStandingSetHeap).
//
// The set is live: Add, Remove and Replace mutate it between — and safely
// concurrent with — Stream calls, compiling only the changed query. The
// engine's membership is versioned in immutable snapshots: a Stream call
// evaluates the set as of its start, so a stream racing a Remove still
// delivers the removed query's results, and one racing an Add first sees
// the new query on the next call. Mutations are serialized against each
// other by the set's lock, and each costs what it changes: the engine and
// the set copy the chunks of their tables a mutation touches, not the
// tables, and pooled evaluation state resyncs by the mutation's delta.
//
// Query indexes are slice-like: Add appends, Remove(i) shifts every index
// above i down by one, and SetResult.QueryIndex refers to the indexing in
// force when the Stream began. That shift is the one cost that grows with
// the set: Remove(i) is O(Len()-i), so removing the last query is O(1).
type QuerySet struct {
	mu      sync.Mutex
	eng     *engine.Engine
	entries []setEntry
	// shape maps the engine snapshot's machines to queries. Replaced on every
	// mutation that moves a machine and immutable once published, so Stream
	// can capture it together with the engine snapshot and use both without
	// the lock.
	shape *shape
}

// shape is the query structure of one membership: which query each machine
// (dense index, the engine snapshot's order) evaluates a branch of, and which
// machines are branches of a union. Every view and Stream of that membership
// shares it. A mutation edits a clone, which copies only the chunks the edit
// touches (internal/cow).
//
//vitex:cow
type shape struct {
	machQuery cow.Table[int]
	union     cow.Table[bool] // machine -> its query has other branches
	nq        int
	unions    int // machines whose query is a union
	// unordered is union.At while any machine is a union branch, else nil:
	// the engine's Plan.Unordered.
	unordered func(machine int) bool
}

// clone starts the next membership's shape.
func (sh *shape) clone() *shape {
	return &shape{machQuery: sh.machQuery.Clone(), union: sh.union.Clone(), nq: sh.nq, unions: sh.unions}
}

// add appends the machines of query qi, which has the given number of
// branches, at the end of the dense order.
//
//vitex:cowmut called on unpublished shapes only
func (sh *shape) add(qi, branches int) {
	for range branches {
		sh.machQuery.Append(qi)
		sh.union.Append(branches > 1)
	}
	if branches > 1 {
		sh.unions += branches
	}
}

// drop removes the machine at dense index d.
//
//vitex:cowmut called on unpublished shapes only
func (sh *shape) drop(d int) {
	if sh.union.At(d) {
		sh.unions--
	}
	sh.machQuery.Delete(d)
	sh.union.Delete(d)
}

// sealed returns the finished shape, ready to publish.
//
//vitex:cowmut called on unpublished shapes only
func (sh *shape) sealed() *shape {
	sh.unordered = nil
	if sh.unions > 0 {
		sh.unordered = sh.union.At
	}
	return sh
}

// setEntry is one standing query: the caller's Query plus the set-engine
// machines (one per union branch) evaluating it. NewQuerySetConfigured makes
// its Queries in one block and slices the machine lists out of one slice.
type setEntry struct {
	q     *Query
	progs []*twigm.Program
}

// SetConfig tunes QuerySet construction.
type SetConfig struct {
	// DisablePrefixSharing compiles every query into a full standalone
	// machine instead of factoring common location-path prefixes into the
	// set's shared trie. Value groups, which route equality subscriptions by
	// value, are prefix sharing too and are turned off with it. Results are
	// byte-identical either way; the knob exists for ablation benchmarks and
	// differential testing.
	DisablePrefixSharing bool
}

// NewQuerySet compiles all sources into a set, factoring common query
// prefixes into a shared trie. It fails on the first query that does not
// compile.
func NewQuerySet(sources ...string) (*QuerySet, error) {
	return NewQuerySetConfigured(SetConfig{}, sources...)
}

// NewQuerySetConfigured is NewQuerySet with explicit configuration. The whole
// set is built as one engine epoch, so construction is linear in the number of
// sources. Each source's branches are compiled into the set's engine only:
// the Query the set keeps for it (Query(i)) builds an engine of its own the
// first time it is used on its own.
func NewQuerySetConfigured(cfg SetConfig, sources ...string) (*QuerySet, error) {
	qs := &QuerySet{entries: make([]setEntry, len(sources))}
	queries := make([]Query, len(sources))
	sh := &shape{nq: len(sources)}
	var branches []*xpath.Query
	ends := make([]int, len(sources)) // ends[qi]: the end of query qi's machines
	for qi, src := range sources {
		parsed, err := xpath.ParseUnion(src)
		if err != nil {
			return nil, err
		}
		q := &queries[qi]
		q.src, q.canonical = src, canonical(src, parsed)
		qs.entries[qi].q = q
		branches = append(branches, parsed...)
		ends[qi] = len(branches)
		sh.add(qi, len(parsed))
	}
	var err error
	ecfg := engine.Config{DisablePrefixSharing: cfg.DisablePrefixSharing}
	if qs.eng, err = engine.NewConfigured(ecfg, branches...); err != nil {
		return nil, err
	}
	progs, start := qs.eng.Programs(), 0
	for qi, end := range ends {
		qs.entries[qi].progs = progs[start:end:end]
		start = end
	}
	qs.shape = sh.sealed()
	return qs, nil
}

// Add appends an already-compiled query to the live set and returns its
// query index. Only the new query is compiled into the shared dispatch
// index; the existing machines are untouched, the set's tables copy only the
// chunks the new query lands in, and pooled sessions resync by visiting its
// slots. Streams already running keep the membership they started with.
//
//vitex:cowmut builds the next shape under qs.mu before publishing it
func (qs *QuerySet) Add(q *Query) (int, error) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	branches, err := q.branches()
	if err != nil {
		return 0, err
	}
	progs, err := qs.addMachinesLocked(branches)
	if err != nil {
		return 0, err
	}
	qi := len(qs.entries)
	qs.entries = append(qs.entries, setEntry{q: q, progs: progs})
	// Added machines take fresh slots at the end of the dense order; the
	// published shape is copy-on-write (in-flight Streams hold the old one).
	sh := qs.shape.clone()
	sh.add(qi, len(progs))
	sh.nq++
	qs.shape = sh.sealed()
	return qi, nil
}

// addMachinesLocked compiles a query's branches into the set engine, rolling
// back on partial failure.
func (qs *QuerySet) addMachinesLocked(branches []*xpath.Query) ([]*twigm.Program, error) {
	progs := make([]*twigm.Program, 0, len(branches))
	for _, b := range branches {
		p, err := qs.eng.Add(b)
		if err != nil {
			for _, added := range progs {
				_ = qs.eng.Remove(added)
			}
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// Remove deletes query i from the live set. Queries after i shift down one
// index (slice semantics), which is O(Len()-i); everything else Remove does
// costs what the removed query held. The removed machines are tombstoned —
// not recompiled around — and their routing-table slots are reclaimed by a
// compaction pass once tombstones accumulate. Streams already running still
// deliver the removed query's results; later streams do not.
//
//vitex:cowmut builds the next shape under qs.mu before publishing it
func (qs *QuerySet) Remove(i int) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if i < 0 || i >= len(qs.entries) {
		return fmt.Errorf("vitex: Remove(%d) on a set of %d queries", i, len(qs.entries))
	}
	sh := qs.shape.clone()
	if err := qs.removeMachinesLocked(qs.entries[i].progs, sh); err != nil {
		// Publish what the engine holds now, as Replace does.
		qs.shape = sh.sealed()
		return err
	}
	qs.entries = slices.Delete(qs.entries, i, i+1)
	// Shift the query indexes above i down by one (slice semantics): the
	// machines of every later query, wherever a Replace put them.
	for qj := i; qj < len(qs.entries); qj++ {
		for _, p := range qs.entries[qj].progs {
			sh.machQuery.Set(qs.eng.Index(p), qj)
		}
	}
	sh.nq--
	qs.shape = sh.sealed()
	return nil
}

// removeMachinesLocked removes progs from the set engine, highest dense index
// first, and drops each from sh as the engine lets it go, so sh matches the
// engine's membership even when a removal fails.
//
//vitex:cowmut edits the unpublished shape sh
func (qs *QuerySet) removeMachinesLocked(progs []*twigm.Program, sh *shape) error {
	progs = slices.Clone(progs)
	dense := make(map[*twigm.Program]int, len(progs))
	for _, p := range progs {
		dense[p] = qs.eng.Index(p)
	}
	slices.SortFunc(progs, func(a, b *twigm.Program) int { return dense[b] - dense[a] })
	for _, p := range progs {
		if err := qs.eng.Remove(p); err != nil {
			return err
		}
		sh.drop(dense[p])
	}
	return nil
}

// Replace swaps query i for q, keeping index i. Only q is compiled; when the
// branch counts match, the new machines reuse the old machines' dispatch
// slots, so the set's machine ordering is unchanged.
func (qs *QuerySet) Replace(i int, q *Query) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if i < 0 || i >= len(qs.entries) {
		return fmt.Errorf("vitex: Replace(%d) on a set of %d queries", i, len(qs.entries))
	}
	old := qs.entries[i]
	branches, err := q.branches()
	if err != nil {
		return err
	}
	if len(branches) == len(old.progs) {
		progs := make([]*twigm.Program, len(branches))
		for b, branch := range branches {
			p, err := qs.eng.Replace(old.progs[b], branch)
			if err != nil {
				// Branches already swapped stay swapped; surface the error.
				// (Compilation of an already-compiled query only fails on
				// resource exhaustion; there is no clean unwind.)
				return err
			}
			progs[b] = p
			old.progs[b] = p
		}
		// Slots (and so dense positions) are reused: the shape is unchanged.
		qs.entries[i] = setEntry{q: q, progs: progs}
		return nil
	}
	progs, err := qs.addMachinesLocked(branches)
	if err != nil {
		return err
	}
	qs.entries[i] = setEntry{q: q, progs: progs}
	// The new machines are at the end of the dense order. Remove the old ones
	// after installing the new entry, and publish the shape whatever
	// happens: even if a Remove fails (an engine-invariant break — the set
	// added these machines itself), the published view matches the engine
	// snapshot, so later Streams fail loudly here, not with an out-of-range
	// panic on an unrelated call.
	sh := qs.shape.clone()
	sh.add(i, len(progs))
	err = qs.removeMachinesLocked(old.progs, sh)
	qs.shape = sh.sealed()
	return err
}

// QuerySetView pins one membership snapshot of a live QuerySet: every Stream
// call on the view evaluates exactly the queries (and query indexing) that
// were in force when View was called, however the set churns afterwards. A
// serving layer that keeps per-subscription state alongside the set captures
// a view and its own bookkeeping under one lock, so a subscription added or
// removed concurrently with an in-flight document can never shift the
// QueryIndex a result is tagged with. Views are cheap (one atomic load plus
// two word copies) and safe for concurrent use.
type QuerySetView struct {
	snap  engine.Snapshot
	shape *shape
}

// View captures the set's current membership as an immutable view. Views
// are values; capturing one allocates nothing.
func (qs *QuerySet) View() QuerySetView {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return QuerySetView{snap: qs.eng.Snapshot(), shape: qs.shape}
}

// Len returns the number of queries in the view.
func (v QuerySetView) Len() int { return v.shape.nq }

// Len returns the number of queries in the set.
func (qs *QuerySet) Len() int {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return len(qs.entries)
}

// Query returns the i-th query of the set.
func (qs *QuerySet) Query(i int) *Query {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.entries[i].q
}

// SetResult tags a Result with the index of the query that produced it.
type SetResult struct {
	// QueryIndex identifies the query (position in NewQuerySet/Add order,
	// as of the Stream call's start).
	QueryIndex int
	Result
}

// Evaluate evaluates every query in the set over one scan of r. emit
// receives each solution tagged with its query index, in per-query
// confirmation order (or per-query document order with Options.Ordered). It
// returns the shared scan's counters (Events, Elements, MaxDepth) and
// allocates nothing per query. When emit returns an error, no further result
// is delivered.
func (qs *QuerySet) Evaluate(r io.Reader, opts Options, emit func(SetResult) error) (Stats, error) {
	return qs.View().Evaluate(r, opts, emit)
}

// Stream is Evaluate returning one row of statistics per query as well: the
// shared scan's counters in every row, and each woken query's work in its
// own. The rows are one allocation, made and filled once the scan is over,
// so they do not delay a result the scan emits; only with Options.Ordered are
// a union query's results, held until the scan is over, delivered after them.
// The engine fills them in one pass: the scan's counters into every row, then
// each woken machine's work into its query's row. They cost one row per
// standing query per document; a caller that does not read them calls
// Evaluate. When emit returns an error every query reports its
// statistics through the scan event whose result failed.
func (qs *QuerySet) Stream(r io.Reader, opts Options, emit func(SetResult) error) ([]Stats, error) {
	return qs.View().Stream(r, opts, emit)
}

// Evaluate evaluates the view's pinned membership over one scan of r; see
// QuerySet.Evaluate.
func (v QuerySetView) Evaluate(r io.Reader, opts Options, emit func(SetResult) error) (Stats, error) {
	scan, _, err := evaluate(v.snap, v.shape, r, opts, emit, false)
	return scan, err
}

// Stream evaluates the view's pinned membership over one scan of r; see
// QuerySet.Stream for the emission and statistics contract.
func (v QuerySetView) Stream(r io.Reader, opts Options, emit func(SetResult) error) ([]Stats, error) {
	_, rows, err := evaluate(v.snap, v.shape, r, opts, emit, true)
	return rows, err
}

// evaluate is the one evaluation behind every entry point: the machines of
// snap, grouped into queries by sh, over one scan of r. It returns the scan's
// counters and, when asked for them, one row of statistics per query. Per
// document it builds one evaluation; nothing here is proportional to the set
// but the rows, which are made after the scan.
func evaluate(snap engine.Snapshot, sh *shape, r io.Reader, opts Options, emit func(SetResult) error, wantRows bool) (Stats, []Stats, error) {
	ev := &evaluation{sh: sh, ordered: opts.Ordered, emit: emit}
	plan := engine.Plan{
		Options:   twigm.Options{Ordered: opts.Ordered, CountOnly: opts.CountOnly, Trace: opts.Trace},
		Unordered: sh.unordered,
	}
	if emit != nil {
		plan.Options.EmitFrom = ev.machineResult
	}
	if wantRows {
		plan.Rows = ev
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	scan, err := snap.Stream(ctx, r, plan)
	if err == nil {
		err = ev.flushHeld()
	}
	return scan, ev.rows, err
}

// evaluation is the per-document state of one stream: the union bookkeeping
// and Stream's rows. Union branches of one query share a dedup set; ordered
// union results are held and flushed in document order at end of scan with
// their Seq renumbered densely per query (branch-local Seqs are incomparable,
// which is also why union branches run unordered).
type evaluation struct {
	sh      *shape
	ordered bool
	emit    func(SetResult) error
	seen    map[unionNode]bool // created by the first union result
	held    []SetResult
	rows    []Stats // Stream's, made by the engine once the scan is over (Make)
}

// Make is the engine's Rows.Make: Stream's rows, one per query, made once the
// scan is over. They are the one allocation per document proportional to the
// set, and why Evaluate asks for no rows.
func (ev *evaluation) Make() []Stats {
	ev.rows = make([]Stats, ev.sh.nq)
	return ev.rows
}

// Row is the engine's Rows.Row: a machine's row is its query's.
func (ev *evaluation) Row(machine int) int { return ev.sh.machQuery.At(machine) }

// unionNode identifies a result node of a union query.
type unionNode struct {
	query  int
	offset int64
}

// machineResult receives every result with the index of its machine.
func (ev *evaluation) machineResult(d int, tr twigm.Result) error {
	sr := SetResult{QueryIndex: ev.sh.machQuery.At(d), Result: Result(tr)}
	if ev.sh.unions > 0 && ev.sh.union.At(d) {
		node := unionNode{sr.QueryIndex, tr.NodeOffset}
		if ev.seen[node] {
			return nil
		}
		if ev.seen == nil {
			ev.seen = make(map[unionNode]bool)
		}
		ev.seen[node] = true
		if ev.ordered {
			ev.held = append(ev.held, sr)
			return nil
		}
	}
	return ev.emit(sr)
}

// flushHeld emits the held ordered union results, per query in document
// order.
func (ev *evaluation) flushHeld() error {
	held := ev.held
	if len(held) == 0 {
		return nil
	}
	sort.Slice(held, func(a, b int) bool {
		if held[a].QueryIndex != held[b].QueryIndex {
			return held[a].QueryIndex < held[b].QueryIndex
		}
		return held[a].NodeOffset < held[b].NodeOffset
	})
	seq, curQuery := int64(0), -1
	for i := range held {
		if held[i].QueryIndex != curQuery {
			curQuery, seq = held[i].QueryIndex, 0
		}
		held[i].Seq = seq
		seq++
		if err := ev.emit(held[i]); err != nil {
			return err
		}
	}
	return nil
}

// Counts evaluates the whole set counting solutions per query, without
// serializing fragments. The returned slice has one entry per query of the
// membership the evaluation ran against — sized from that view, so a
// mutation racing the call cannot put an emission out of range.
func (qs *QuerySet) Counts(r io.Reader) ([]int64, error) {
	v := qs.View()
	counts := make([]int64, v.Len())
	_, err := v.Evaluate(r, Options{CountOnly: true}, func(sr SetResult) error {
		counts[sr.QueryIndex]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// Metrics returns the set engine's churn accounting: compile counts,
// epoch/compaction numbers and slot occupancy. See engine.Metrics.
func (qs *QuerySet) Metrics() engine.Metrics {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.eng.Metrics()
}

// EvalHistogram returns the full bucket data behind Metrics().Eval: the
// distribution of per-stream evaluation cost in ns per scan event.
func (qs *QuerySet) EvalHistogram() obs.Snapshot {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.eng.EvalHistogram()
}
