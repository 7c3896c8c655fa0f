// Epoch layer: the mutability story of the shared-dispatch engine.
//
// The paper's subscription scenario is not a fixed query set — millions of
// standing subscriptions churn constantly. Recompiling every machine on each
// Add would make churn cost O(total queries) compilations; this file compiles
// only the changed query by separating the engine's identity (symbol table,
// pools, metrics) from its membership (an immutable epoch snapshot swapped
// atomically). The bookkeeping around the compile is O(changed) too: a
// mutation copies the spines and the chunks it touches of the epoch's tables,
// not the tables.
//
//   - The shared sax.Symbols table is append-only and engine-lifetime: a new
//     query compiles against it alone, existing machines and interned IDs are
//     never invalidated, and scanners only ever need to re-resolve names they
//     previously failed to find (see xmlscan.Scanner.Reset).
//   - An epoch assigns each machine a slot. Its slot- and symbol-indexed
//     tables are chunked copy-on-write tables (internal/cow): the next epoch
//     clones them in O(1), and its writes copy one spine and the chunks they
//     land in. Inner subscription lists are shared and only appended to —
//     appends land past every older epoch's length, so in-flight streams
//     reading an older epoch never observe them. Removal rebuilds just the
//     removed machine's lists.
//   - Remove tombstones a slot (progs[slot] = nil) instead of renumbering,
//     so untouched machines keep their slots; the last slot it reclaims at
//     once. Its dense (caller-facing) indexes shift, which costs O(machines
//     after it): removing the last machine is O(1). When tombstones exceed a
//     threshold, a compaction pass renumbers the survivors densely
//     (preserving relative order) and rebuilds the routing tables,
//     reclaiming slot-indexed space.
//   - Every epoch records its delta: the slots whose machine or routed
//     status its mutation changed, chained to the deltas of the mutations
//     before it. A pooled session behind (or ahead of) an epoch resyncs by
//     visiting the slots of the deltas between the two alone (changes); one
//     across a compaction, or more than maxLag mutations away, rebuilds its
//     per-slot state.
//   - Stream calls capture a Snapshot (one atomic load). A stream started
//     before a mutation completes runs against the old membership — results
//     of a concurrently-removed query are still delivered on that stream,
//     and a concurrently-added query first matches on the next stream.
//
// Mutations are serialized by Engine.mu; Snapshot and Stream never take it.
package engine

import (
	"fmt"

	"repro/internal/cow"
	"repro/internal/obs"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// Compaction runs when at least compactMinGarbage slots are tombstoned AND
// tombstones outnumber live machines. The first bound keeps small sets from
// compacting on every other Remove; the second bounds slot-indexed state
// (session runs, stamps, dense sets) at 2x the live set.
const compactMinGarbage = 16

// maxLag bounds a chain of deltas: every maxLag mutations a new chain starts,
// so an epoch reaches at most that many deltas, and a session at most that
// many epochs behind (fewer, just after a chain starts) resyncs through them.
const maxLag = 1024

// delta is what one mutation changed: the slots whose machine, or whether it
// is routed, differs from the epoch before. The deltas of consecutive
// mutations chain back to the first of their chain, which follows a rebuild
// or starts after maxLag mutations, so a chain holds no epoch alive and no
// more than maxLag deltas.
//
//vitex:cow
type delta struct {
	seq   uint64 // the epoch the mutation published
	slots []int32
	prev  *delta // the previous mutation's, nil for the first of a chain
	first uint64 // seq of the first delta of the chain
}

// epoch is one immutable membership snapshot: the compiled machines by slot,
// the live-slot index, and the routing tables restricted to live slots.
// Everything reachable from an epoch is frozen once the epoch is published;
// successor epochs share its table chunks until they write them, and its
// inner subscription lists append-only (see the package comment for why that
// is safe). The copy-on-write discipline is machine-checked: only
// //vitex:cowmut functions (the builders below, which run before
// Engine.cur.Store publishes the epoch) may write its fields.
//
//vitex:cow
type epoch struct {
	// seq increments per mutation; a compaction rides the mutation that
	// triggered it. Sessions compare epoch pointers for the steady state and
	// seqs to find the deltas between two epochs.
	seq uint64
	// progs maps slot -> machine; nil is a tombstone left by Remove.
	progs cow.Table[*twigm.Program]
	// live lists the non-tombstoned slots in ascending order. Ascending
	// slot order equals insertion order (compaction is stable), and is the
	// order broadcast deliveries and dense (caller-facing) indexing use.
	live cow.Table[int32]
	// liveIdx maps slot -> dense index in live (-1 for tombstones).
	liveIdx cow.Table[int32]

	routes

	// trie is the shared prefix trie of this membership (nil when the
	// engine was built with prefix sharing disabled); anchors maps slot ->
	// trie node ID the slot's residual machine is anchored at (-1 for
	// unanchored machines). Mutations graft/prune copy-on-write, so the
	// pair is immutable once the epoch is published, like everything else
	// here. The value groups hang off it: a group's key is the trie node
	// its members' step follows (value.go).
	trie    *twigm.Trie
	anchors cow.Table[int32]
	// groups maps a value-group ID to its member table (nil for a dead ID),
	// and groupOf maps slot -> the ID of the group the slot's machine is a
	// member of, -1 for a machine of its own query.
	groups  cow.Table[*twigm.ValueGroup]
	groupOf cow.Table[int32]

	garbage int // tombstoned slots in progs
	// Counts Metrics reports, kept by the mutations: live machines anchored
	// in the trie, live value groups and the machines they evaluate.
	anchored, valueGroups, valueKeyed int

	// delta is this epoch's mutation's, chained to those before it; nil for
	// an epoch rebuild made. rebuiltAt is the seq of the latest epoch that
	// renumbered slots or trie nodes (the first epoch, a compaction): no
	// delta leads across it.
	delta     *delta
	rebuiltAt uint64
}

// routes are an epoch's static routing tables, what its routers route by.
// They cover its live machines, of a value group only the host (value.go).
//
//vitex:cow
type routes struct {
	elemSubs cow.Table[[]int32] // NameID -> slots subscribed to the element name
	attrSubs cow.Table[[]int32] // NameID -> slots subscribed to the attribute name
	wild     []int32            // slots with a '*' element node
	rootText []int32            // slots with a root text() node: text subscribers before their first wake
	// values counts, by NameID, the slots whose machine reads the content
	// of elements of that name (twigm.Program.ValueRootIDs): the value roots
	// of the epoch's projection (projection.go).
	values cow.Table[int32]
	// blind counts the slots with a text() node at the document root, which
	// reads text no element name selects.
	blind int
}

// clone starts the next epoch: every table is shared until written, and the
// delta log moves on by one mutation.
//
//vitex:cowmut builds the next epoch before publication
func (ep *epoch) clone() *epoch {
	d := &delta{seq: ep.seq + 1, first: ep.seq + 1}
	if p := ep.delta; p != nil && d.seq-p.first < maxLag {
		d.prev, d.first = p, p.first
	}
	return &epoch{
		seq:     ep.seq + 1,
		progs:   ep.progs.Clone(),
		live:    ep.live.Clone(),
		liveIdx: ep.liveIdx.Clone(),
		routes: routes{
			elemSubs: ep.elemSubs.Clone(),
			attrSubs: ep.attrSubs.Clone(),
			wild:     ep.wild,
			rootText: ep.rootText,
			values:   ep.values.Clone(),
			blind:    ep.blind,
		},
		trie:        ep.trie,
		anchors:     ep.anchors.Clone(),
		groups:      ep.groups.Clone(),
		groupOf:     ep.groupOf.Clone(),
		garbage:     ep.garbage,
		anchored:    ep.anchored,
		valueGroups: ep.valueGroups,
		valueKeyed:  ep.valueKeyed,
		delta:       d,
		rebuiltAt:   ep.rebuiltAt,
	}
}

// touch records that this epoch's mutation changed slot's machine or whether
// it is routed.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) touch(slot int32) {
	ep.delta.slots = append(ep.delta.slots, slot)
}

// changes returns the deltas that lead between epochs a and b, in either
// direction: d and the deltas it chains to while their seq is above since.
// Every slot whose machine or routed status differs between the two epochs
// is in one of them. ok is false when no chain leads between them — a is
// nil, a compaction lies between them, or the newer one's chain starts after
// the older one — and the caller must rebuild its per-slot state.
func changes(a, b *epoch) (d *delta, since uint64, ok bool) {
	if a == nil {
		return nil, 0, false
	}
	older, newer := a, b
	if older.seq > newer.seq {
		older, newer = b, a
	}
	if older.seq < newer.rebuiltAt || newer.delta == nil || older.seq+1 < newer.delta.first {
		return nil, 0, false
	}
	return newer.delta, older.seq, true
}

// subscribe adds slot's machine: to its value group when its program is
// value-keyed, to the routing tables otherwise.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) subscribe(slot int32, p *twigm.Program) {
	if literal, ok := p.ValueKey(); ok {
		ep.join(slot, p, literal)
		return
	}
	ep.route(slot, p)
}

// unsubscribe takes slot's machine out of its value group, or out of the
// routing tables.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) unsubscribe(slot int32, p *twigm.Program) {
	if gid := ep.groupOf.At(int(slot)); gid >= 0 {
		ep.leave(slot, p, gid)
		return
	}
	ep.unroute(slot, p)
}

// route adds slot to every routing list program p's static subscriptions
// name. Appends may share backing arrays with older epochs; they only ever
// write past those epochs' lengths.
//
//vitex:cowmut writes the routes of unpublished epochs only
func (r *routes) route(slot int32, p *twigm.Program) {
	for _, id := range p.ElemNameIDs() {
		addSub(&r.elemSubs, id, slot)
	}
	for _, id := range p.AttrNameIDs() {
		addSub(&r.attrSubs, id, slot)
	}
	if p.HasWildcardElem() {
		r.wild = append(r.wild, slot)
	}
	if p.HasRootText() {
		r.rootText = append(r.rootText, slot)
		if !p.Anchored() {
			r.blind++
		}
	}
	for _, id := range p.ValueRootIDs() {
		for r.values.Len() <= int(id) {
			r.values.Append(0)
		}
		r.values.Set(int(id), r.values.At(int(id))+1)
	}
}

// addSub appends slot to subscription list id of subs, growing the table to
// cover id.
//
//vitex:cowmut writes the tables of unpublished epochs only
func addSub(subs *cow.Table[[]int32], id, slot int32) {
	for subs.Len() <= int(id) {
		subs.Append(nil)
	}
	subs.Set(int(id), append(subs.At(int(id)), slot))
}

// unroute rebuilds (fresh backing — older epochs keep reading the old lists)
// every routing list program p's subscriptions name, dropping slot.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) unroute(slot int32, p *twigm.Program) {
	for _, id := range p.ElemNameIDs() {
		ep.elemSubs.Set(int(id), without(ep.elemSubs.At(int(id)), slot))
	}
	for _, id := range p.AttrNameIDs() {
		ep.attrSubs.Set(int(id), without(ep.attrSubs.At(int(id)), slot))
	}
	if p.HasWildcardElem() {
		ep.wild = without(ep.wild, slot)
	}
	if p.HasRootText() {
		ep.rootText = without(ep.rootText, slot)
		if !p.Anchored() {
			ep.blind--
		}
	}
	for _, id := range p.ValueRootIDs() {
		ep.values.Set(int(id), ep.values.At(int(id))-1)
	}
}

// rebuild builds everything but progs and the trie afresh: the value groups,
// the routing tables, the live index and the counts. It is the whole build of
// a new engine, a compaction's and a trie compaction's, and no delta chain
// leads across it.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) rebuild() {
	ep.regroup()
	ep.routes = routes{}
	ep.live, ep.liveIdx = cow.Table[int32]{}, cow.Table[int32]{}
	ep.anchored = 0
	for slot := range ep.progs.Len() {
		p := ep.progs.At(slot)
		if p == nil {
			ep.liveIdx.Append(-1)
			continue
		}
		ep.liveIdx.Append(int32(ep.live.Len()))
		ep.live.Append(int32(slot))
		if ep.anchors.At(slot) >= 0 {
			ep.anchored++
		}
		if ep.routed(int32(slot)) {
			ep.route(int32(slot), p)
		}
	}
	ep.delta, ep.rebuiltAt = nil, ep.seq
}

// without returns a fresh copy of list with slot removed.
func without(list []int32, slot int32) []int32 {
	out := make([]int32, 0, len(list)-1)
	for _, s := range list {
		if s != slot {
			out = append(out, s)
		}
	}
	return out
}

// unlist takes tombstoned slot out of the live index, shifting the dense
// index of every later machine down by one.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) unlist(slot int32) {
	d := int(ep.liveIdx.At(int(slot)))
	ep.live.Delete(d)
	ep.liveIdx.Set(int(slot), -1)
	for ; d < ep.live.Len(); d++ {
		ep.liveIdx.Set(int(ep.live.At(d)), int32(d))
	}
}

// truncate drops the slot-indexed tables' entries from slot on, which hold
// nothing live: removing the last machine reclaims its slot at once, and the
// next Add takes the number again.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) truncate(slot int32) {
	n := int(slot)
	ep.progs = ep.progs.Truncate(n)
	ep.liveIdx = ep.liveIdx.Truncate(n)
	ep.anchors = ep.anchors.Truncate(n)
	ep.groupOf = ep.groupOf.Truncate(n)
}

// compact renumbers the survivors densely, preserving relative order, and
// rebuilds the routing tables from scratch. Sessions resynced to a compacted
// epoch re-key their per-slot state by program identity, so machine runs
// (and their warmed-up allocations) survive the renumbering.
//
//vitex:cowmut builds the compacted epoch before publication
func (ep *epoch) compact() *epoch {
	next := &epoch{
		seq:  ep.seq, // compaction rides the mutation that triggered it
		trie: ep.trie,
	}
	for d := range ep.live.Len() {
		slot := int(ep.live.At(d))
		next.progs.Append(ep.progs.At(slot))
		next.anchors.Append(ep.anchors.At(slot))
	}
	next.rebuild()
	return next
}

// ---- engine mutations ----

// compileLocked compiles q the way this engine evaluates: prefix-shared
// (residual machine + profile) by default, a full standalone machine when
// sharing is disabled.
func (e *Engine) compileLocked(q *xpath.Query) (*twigm.Program, error) {
	if !e.share {
		return twigm.CompileWith(q, e.syms)
	}
	return twigm.CompileShared(q, e.syms)
}

// graftLocked merges p's prefix profile into the epoch's trie and records
// slot's anchor. No-op for unanchored machines.
//
//vitex:cowmut mutates the unpublished epoch under e.mu
func (e *Engine) graftLocked(ep *epoch, slot int32, p *twigm.Program) {
	if !p.Anchored() {
		return
	}
	var a int32
	ep.trie, a = ep.trie.Graft(p.Profile())
	ep.anchors.Set(int(slot), a)
	ep.anchored++
	e.trieGrafts.Add(1)
}

// pruneLocked releases slot's anchor path from the epoch's trie.
//
//vitex:cowmut mutates the unpublished epoch under e.mu
func (e *Engine) pruneLocked(ep *epoch, slot int32) {
	if a := ep.anchors.At(int(slot)); a >= 0 {
		ep.trie = ep.trie.Prune(a)
		ep.anchors.Set(int(slot), -1)
		ep.anchored--
		e.triePrunes.Add(1)
	}
}

// buildTrieLocked grafts the profiles of every live machine of ep into one
// fresh trie and anchors them there: the whole trie of a new engine, or a
// compaction's. Value groups are keyed by anchor, so the caller rebuilds them.
//
//vitex:cowmut mutates the unpublished epoch under e.mu
func (e *Engine) buildTrieLocked(ep *epoch) (grafts int) {
	profiles := make([][]twigm.TrieStep, ep.progs.Len())
	for slot := range profiles {
		if p := ep.progs.At(slot); p != nil && p.Anchored() {
			profiles[slot] = p.Profile()
			grafts++
		}
	}
	var anchors []int32
	ep.trie, anchors = twigm.BuildTrie(profiles)
	ep.anchors = cow.From(anchors)
	return grafts
}

// maybeCompactTrieLocked rebuilds the trie with dense node IDs when pruning
// has left more dead IDs than live nodes (same shape as slot compaction).
// Machines are NOT recompiled: their stored profiles are re-grafted, the
// epoch's anchor table rewritten and the value groups (keyed by anchor) and
// routing tables rebuilt, so pooled sessions just resize their prefix stacks
// on resync.
//
//vitex:cowmut mutates the unpublished epoch under e.mu
func (e *Engine) maybeCompactTrieLocked(ep *epoch) {
	t := ep.trie
	if t == nil || t.Garbage() < compactMinGarbage || t.Garbage() <= t.Live() {
		return
	}
	e.buildTrieLocked(ep)
	ep.rebuild()
	e.trieCompactions.Add(1)
}

// slotLocked returns the slot of live machine p, or -1.
func (e *Engine) slotLocked(p *twigm.Program) int32 {
	if slot, ok := e.slots[p]; ok {
		return slot
	}
	return -1
}

// reslotLocked re-derives the handle index from a renumbered epoch.
func (e *Engine) reslotLocked(ep *epoch) {
	clear(e.slots)
	for d := range ep.live.Len() {
		slot := ep.live.At(d)
		e.slots[ep.progs.At(int(slot))] = slot
	}
}

// Add compiles q against the shared symbol table, grafts its prefix profile
// into the trie and publishes a new epoch containing it. No existing machine
// is recompiled or otherwise touched; streams already running keep their
// snapshot and first see the new machine on their next Stream call. Returns
// the new machine, which is the handle Remove and Replace take.
//
//vitex:cowmut builds the next epoch under e.mu, publishes via cur.Store
func (e *Engine) Add(q *xpath.Query) (*twigm.Program, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := e.compileLocked(q)
	if err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	ep := e.cur.Load().clone()
	slot := int32(ep.progs.Len())
	ep.progs.Append(p)
	ep.anchors.Append(-1)
	ep.groupOf.Append(-1)
	ep.touch(slot)
	e.graftLocked(ep, slot, p)
	ep.subscribe(slot, p)
	ep.liveIdx.Append(int32(ep.live.Len()))
	ep.live.Append(slot)
	e.slots[p] = slot
	e.cur.Store(ep)
	return p, nil
}

// Remove tombstones machine p, prunes its trie branch and publishes a new
// epoch without it. Streams already running still deliver p's results; later
// streams do not. When tombstones (slots or trie IDs) pass the compaction
// threshold the new epoch is compacted.
//
//vitex:cowmut builds the next epoch under e.mu, publishes via cur.Store
func (e *Engine) Remove(p *twigm.Program) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := e.slotLocked(p)
	if slot < 0 {
		return fmt.Errorf("engine: Remove of a machine not in the set")
	}
	delete(e.slots, p)
	ep := e.cur.Load().clone()
	ep.progs.Set(int(slot), nil)
	ep.touch(slot)
	e.pruneLocked(ep, slot)
	ep.unsubscribe(slot, p)
	ep.unlist(slot)
	if int(slot) == ep.progs.Len()-1 {
		ep.truncate(slot)
	} else {
		ep.garbage++
	}
	if ep.garbage >= compactMinGarbage && ep.garbage > ep.live.Len() {
		ep = ep.compact()
		e.reslotLocked(ep)
		e.compactions.Add(1)
	}
	e.maybeCompactTrieLocked(ep)
	e.cur.Store(ep)
	return nil
}

// Replace swaps machine old for a machine compiled from q, reusing old's
// slot (the new machine keeps old's position in the dense order). Only q is
// compiled; the trie prunes old's branch and grafts the new profile.
//
//vitex:cowmut builds the next epoch under e.mu, publishes via cur.Store
func (e *Engine) Replace(old *twigm.Program, q *xpath.Query) (*twigm.Program, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := e.slotLocked(old)
	if slot < 0 {
		return nil, fmt.Errorf("engine: Replace of a machine not in the set")
	}
	p, err := e.compileLocked(q)
	if err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	delete(e.slots, old)
	e.slots[p] = slot
	ep := e.cur.Load().clone()
	ep.touch(slot)
	ep.unsubscribe(slot, old)
	e.pruneLocked(ep, slot)
	ep.progs.Set(int(slot), p)
	e.graftLocked(ep, slot, p)
	ep.subscribe(slot, p)
	e.maybeCompactTrieLocked(ep)
	e.cur.Store(ep)
	return p, nil
}

// Index returns the dense index of live machine p in the current membership,
// or -1 when p is not in it.
func (e *Engine) Index(p *twigm.Program) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := e.slotLocked(p)
	if slot < 0 {
		return -1
	}
	return int(e.cur.Load().liveIdx.At(int(slot)))
}

// Metrics is a point-in-time view of the engine's churn accounting, the
// counters the incremental-update guarantees are asserted against: Compiles
// counts machine compilations over the engine's lifetime (an Add moves it by
// exactly one), Compactions counts slot-reclaiming passes, and
// Slots/Live/Garbage describe the current epoch.
type Metrics struct {
	Epoch       uint64
	Compiles    int64
	Compactions int64
	Slots       int
	Live        int
	Garbage     int

	// Prefix-sharing accounting. TrieNodes is the live shared-trie node
	// count (0 when sharing is disabled or no query shares); TrieGarbage
	// counts pruned node IDs awaiting compaction; AnchoredMachines is how
	// many live machines evaluate as residuals behind the trie.
	// TrieGrafts/TriePrunes/TrieCompactions count trie mutations over the
	// engine's lifetime.
	TrieNodes        int
	TrieGarbage      int
	AnchoredMachines int
	TrieGrafts       int64
	TriePrunes       int64
	TrieCompactions  int64

	// Value-keyed dispatch: ValueGroups is the number of live value groups
	// and ValueKeyedMachines the number of live machines they evaluate (0
	// when sharing is disabled).
	ValueGroups        int
	ValueKeyedMachines int

	// Dispatch accounting, cumulative over the engine's lifetime: scan
	// events, whether or not the scanner's projection let them reach the
	// router, deliveries made (Deliveries/Events = machines woken per event
	// — the quantity prefix sharing drives down; a delivery to a value
	// group counts once, however many machines it evaluates), and trie
	// entries pushed by the shared prefix layer. Document boundaries are not
	// broadcast: StartDocument is delivered to nobody and EndDocument only to
	// what the document woke, so a machine a document never concerns adds
	// nothing to Deliveries; an end tag is delivered only to the machines
	// it pops.
	Events     int64
	Deliveries int64
	TriePushes int64

	// Eval summarizes the per-stream evaluation-cost histogram
	// (nanoseconds per scan event): always on, two clock reads per
	// document. Full bucket data via EvalHistogram.
	Eval obs.Stats
}

// Metrics returns the engine's churn and dispatch accounting in O(1): the
// membership counts are kept on the epoch by the mutations.
func (e *Engine) Metrics() Metrics {
	ep := e.cur.Load()
	return Metrics{
		Epoch:              ep.seq,
		Compiles:           e.compiles.Load(),
		Compactions:        e.compactions.Load(),
		Slots:              ep.progs.Len(),
		Live:               ep.live.Len(),
		Garbage:            ep.garbage,
		TrieNodes:          ep.trie.Live(),
		TrieGarbage:        ep.trie.Garbage(),
		AnchoredMachines:   ep.anchored,
		TrieGrafts:         e.trieGrafts.Load(),
		TriePrunes:         e.triePrunes.Load(),
		TrieCompactions:    e.trieCompactions.Load(),
		ValueGroups:        ep.valueGroups,
		ValueKeyedMachines: ep.valueKeyed,
		Events:             e.events.Load(),
		Deliveries:         e.deliveries.Load(),
		TriePushes:         e.triePushes.Load(),
		Eval:               e.evalHist.Snapshot().Stats(),
	}
}
