// Epoch layer: the mutability story of the shared-dispatch engine.
//
// The paper's subscription scenario is not a fixed query set — millions of
// standing subscriptions churn constantly. Recompiling every machine on each
// Add would make churn cost O(total queries); this file makes it O(changed
// query) by separating the engine's identity (symbol table, pools, metrics)
// from its membership (an immutable epoch snapshot swapped atomically):
//
//   - The shared sax.Symbols table is append-only and engine-lifetime: a new
//     query compiles against it alone, existing machines and interned IDs are
//     never invalidated, and scanners only ever need to re-resolve names they
//     previously failed to find (see xmlscan.Scanner.Reset).
//   - An epoch assigns each machine a slot. Mutations build the next epoch
//     by structural sharing: outer tables are copied (O(slots) pointer
//     copies, no compilation), inner subscription lists are shared and only
//     appended to — appends land past every older epoch's length, so
//     in-flight streams reading an older epoch never observe them. Removal
//     rebuilds just the removed machine's lists.
//   - Remove tombstones a slot (progs[slot] = nil) instead of renumbering,
//     so untouched machines keep their slots and pooled sessions resync
//     incrementally. When tombstones exceed a threshold, a compaction pass
//     renumbers the survivors densely (preserving relative order) and
//     rebuilds the routing tables, reclaiming slot-indexed space.
//   - Stream calls capture a Snapshot (one atomic load). A stream started
//     before a mutation completes runs against the old membership — results
//     of a concurrently-removed query are still delivered on that stream,
//     and a concurrently-added query first matches on the next stream.
//
// Mutations are serialized by Engine.mu; Snapshot and Stream never take it.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// Compaction runs when at least compactMinGarbage slots are tombstoned AND
// tombstones outnumber live machines. The first bound keeps small sets from
// compacting on every other Remove; the second bounds slot-indexed state
// (session runs, stamps, dense sets) at 2x the live set.
const compactMinGarbage = 16

// epoch is one immutable membership snapshot: the compiled machines by slot,
// the live-slot index, and the routing tables restricted to live slots.
// Everything reachable from an epoch is frozen once the epoch is published;
// successor epochs share inner subscription lists append-only (see the
// package comment for why that is safe). The copy-on-write discipline is
// machine-checked: only //vitex:cowmut functions (the builders below, which
// run before Engine.cur.Store publishes the epoch) may write its fields.
//
//vitex:cow
type epoch struct {
	// seq increments per mutation (diagnostics; sessions compare epoch
	// pointers, not seqs).
	seq uint64
	// progs maps slot -> machine; nil is a tombstone left by Remove.
	progs []*twigm.Program
	// live lists the non-tombstoned slots in ascending order. Ascending
	// slot order equals insertion order (compaction is stable), and is the
	// order broadcast deliveries and dense (caller-facing) indexing use.
	live []int32
	// liveIdx maps slot -> dense index in live (-1 for tombstones).
	liveIdx []int32

	routes

	// trie is the shared prefix trie of this membership (nil when the
	// engine was built with prefix sharing disabled); anchors maps slot ->
	// trie node ID the slot's residual machine is anchored at (-1 for
	// unanchored machines). Mutations graft/prune copy-on-write, so the
	// pair is immutable once the epoch is published, like everything else
	// here. The value groups hang off it: a group's key is the trie node
	// its members' step follows (value.go).
	trie    *twigm.Trie
	anchors []int32
	// groups maps a value-group ID to its member table (nil for a dead ID),
	// and groupOf maps slot -> the ID of the group the slot's machine is a
	// member of, -1 for a machine of its own query.
	groups  []*twigm.ValueGroup
	groupOf []int32

	garbage int // tombstoned slots in progs
}

// routes are the static routing tables of a set of machines, what a router
// routes by. An epoch's cover its live machines, of a value group only the
// host (value.go); a parallel shard's router gets them restricted to the
// shard's.
//
//vitex:cow
type routes struct {
	elemSubs [][]int32 // NameID -> slots subscribed to the element name
	attrSubs [][]int32 // NameID -> slots subscribed to the attribute name
	wild     []int32   // slots with a '*' element node
	rootText []int32   // slots with a root text() node: text subscribers before their first wake
	machines []int32   // slots with a run, ascending (a broadcast's recipients)
}

// clone copies the epoch's outer structure for the next mutation: slot and
// subscription tables get fresh outer slices (inner lists shared), and the
// subscription tables grow to cover symsLen (the table may have grown while
// compiling the query that triggered this mutation).
//
//vitex:cowmut builds the next epoch before publication
func (ep *epoch) clone(symsLen int) *epoch {
	return &epoch{
		seq:   ep.seq + 1,
		progs: append([]*twigm.Program(nil), ep.progs...),
		routes: routes{
			elemSubs: growSubs(ep.elemSubs, symsLen),
			attrSubs: growSubs(ep.attrSubs, symsLen),
			wild:     ep.wild,
			rootText: ep.rootText,
		},
		trie:    ep.trie,
		anchors: slices.Clone(ep.anchors),
		groups:  slices.Clone(ep.groups),
		groupOf: slices.Clone(ep.groupOf),
		garbage: ep.garbage,
	}
}

// growSubs copies the outer slice of a subscription table, extended to cover
// IDs 1..symsLen.
func growSubs(subs [][]int32, symsLen int) [][]int32 {
	n := symsLen + 1
	if n < len(subs) {
		n = len(subs)
	}
	out := make([][]int32, n)
	copy(out, subs)
	return out
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
	if gid := ep.groupOf[slot]; gid >= 0 {
		ep.leave(slot, p, gid)
		return
	}
	ep.unroute(slot, p)
}

// route adds slot to every routing list program p's static subscriptions
// name. Appends may share backing arrays with older epochs; they only ever
// write past those epochs' lengths.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) route(slot int32, p *twigm.Program) {
	for _, id := range p.ElemNameIDs() {
		ep.elemSubs[id] = append(ep.elemSubs[id], slot)
	}
	for _, id := range p.AttrNameIDs() {
		ep.attrSubs[id] = append(ep.attrSubs[id], slot)
	}
	if p.HasWildcardElem() {
		ep.wild = append(ep.wild, slot)
	}
	if p.HasRootText() {
		ep.rootText = append(ep.rootText, slot)
	}
}

// unroute rebuilds (fresh backing — older epochs keep reading the old lists)
// every routing list program p's subscriptions name, dropping slot.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) unroute(slot int32, p *twigm.Program) {
	for _, id := range p.ElemNameIDs() {
		ep.elemSubs[id] = without(ep.elemSubs[id], slot)
	}
	for _, id := range p.AttrNameIDs() {
		ep.attrSubs[id] = without(ep.attrSubs[id], slot)
	}
	if p.HasWildcardElem() {
		ep.wild = without(ep.wild, slot)
	}
	if p.HasRootText() {
		ep.rootText = without(ep.rootText, slot)
	}
}

// subscribeAll builds the value groups and fresh routing tables from every
// live machine, each group in one pass rather than one copy per member.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) subscribeAll(symsLen int) {
	ep.regroup()
	ep.elemSubs = make([][]int32, symsLen+1)
	ep.attrSubs = make([][]int32, symsLen+1)
	ep.wild, ep.rootText = nil, nil
	for slot, p := range ep.progs {
		if p != nil && ep.routed(int32(slot)) {
			ep.route(int32(slot), p)
		}
	}
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

// reindex rebuilds the live/liveIdx views and the routed machine list from
// progs.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) reindex() {
	ep.live = make([]int32, 0, len(ep.progs)-ep.garbage)
	ep.liveIdx = make([]int32, len(ep.progs))
	ep.machines = nil
	for slot, p := range ep.progs {
		if p == nil {
			ep.liveIdx[slot] = -1
			continue
		}
		ep.liveIdx[slot] = int32(len(ep.live))
		ep.live = append(ep.live, int32(slot))
		if ep.routed(int32(slot)) {
			ep.machines = append(ep.machines, int32(slot))
		}
	}
}

// slotOf returns the slot of p, or -1 if p is not a live machine of this
// epoch. Linear in slots — mutations are O(slots) bookkeeping anyway.
func (ep *epoch) slotOf(p *twigm.Program) int32 {
	for slot, q := range ep.progs {
		if q == p && q != nil {
			return int32(slot)
		}
	}
	return -1
}

// compact renumbers the survivors densely, preserving relative order, and
// rebuilds the routing tables from scratch. Sessions resynced to a compacted
// epoch re-key their per-slot state by program identity, so machine runs
// (and their warmed-up allocations) survive the renumbering.
//
//vitex:cowmut builds the compacted epoch before publication
func (ep *epoch) compact(symsLen int) *epoch {
	next := &epoch{
		seq:     ep.seq, // compaction rides the mutation that triggered it
		progs:   make([]*twigm.Program, 0, len(ep.live)),
		trie:    ep.trie,
		anchors: make([]int32, 0, len(ep.live)),
	}
	for _, slot := range ep.live {
		next.progs = append(next.progs, ep.progs[slot])
		next.anchors = append(next.anchors, ep.anchors[slot])
	}
	next.subscribeAll(symsLen)
	next.reindex()
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
	ep.trie, ep.anchors[slot] = ep.trie.Graft(p.Profile(), e.syms.Len())
	e.trieGrafts.Add(1)
}

// pruneLocked releases slot's anchor path from the epoch's trie.
//
//vitex:cowmut mutates the unpublished epoch under e.mu
func (e *Engine) pruneLocked(ep *epoch, slot int32) {
	if a := ep.anchors[slot]; a >= 0 {
		ep.trie = ep.trie.Prune(a)
		ep.anchors[slot] = -1
		e.triePrunes.Add(1)
	}
}

// buildTrieLocked grafts the profiles of every live machine of ep into one
// fresh trie and anchors them there: the whole trie of a new engine, or a
// compaction's. Value groups are keyed by anchor, so they are rebuilt too.
//
//vitex:cowmut mutates the unpublished epoch under e.mu
func (e *Engine) buildTrieLocked(ep *epoch) (grafts int) {
	profiles := make([][]twigm.TrieStep, len(ep.progs))
	for slot, p := range ep.progs {
		if p != nil && p.Anchored() {
			profiles[slot] = p.Profile()
			grafts++
		}
	}
	ep.trie, ep.anchors = twigm.BuildTrie(profiles, e.syms.Len())
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
	ep.subscribeAll(e.syms.Len())
	ep.reindex()
	e.trieCompactions.Add(1)
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
	ep := e.cur.Load().clone(e.syms.Len())
	slot := int32(len(ep.progs))
	ep.progs = append(ep.progs, p)
	ep.anchors = append(ep.anchors, -1)
	ep.groupOf = append(ep.groupOf, -1)
	e.graftLocked(ep, slot, p)
	ep.subscribe(slot, p)
	ep.reindex()
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
	old := e.cur.Load()
	slot := old.slotOf(p)
	if slot < 0 {
		return fmt.Errorf("engine: Remove of a machine not in the set")
	}
	ep := old.clone(e.syms.Len())
	ep.progs[slot] = nil
	ep.garbage++
	e.pruneLocked(ep, slot)
	ep.unsubscribe(slot, p)
	ep.reindex()
	if ep.garbage >= compactMinGarbage && ep.garbage > len(ep.live) {
		ep = ep.compact(e.syms.Len())
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
	cur := e.cur.Load()
	slot := cur.slotOf(old)
	if slot < 0 {
		return nil, fmt.Errorf("engine: Replace of a machine not in the set")
	}
	p, err := e.compileLocked(q)
	if err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	ep := cur.clone(e.syms.Len())
	ep.unsubscribe(slot, old)
	e.pruneLocked(ep, slot)
	ep.progs[slot] = p
	e.graftLocked(ep, slot, p)
	ep.subscribe(slot, p)
	ep.reindex()
	e.maybeCompactTrieLocked(ep)
	e.cur.Store(ep)
	return p, nil
}

// Metrics is a point-in-time view of the engine's churn accounting, the
// counters the incremental-update guarantees are asserted against: Compiles
// counts machine compilations over the engine's lifetime (an Add moves it by
// exactly one), Compactions counts slot-reclaiming passes, ShardRebalances
// counts parallel-shard routing tables rebuilt during pooled session resyncs
// (an Add touches exactly one shard per session), and Slots/Live/Garbage
// describe the current epoch.
type Metrics struct {
	Epoch           uint64
	Compiles        int64
	Compactions     int64
	ShardRebalances int64
	Slots           int
	Live            int
	Garbage         int

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
	// events routed, deliveries made (Deliveries/Events = machines woken
	// per event — the quantity prefix sharing drives down; a delivery to a
	// value group counts once, however many machines it evaluates), and
	// trie entries pushed by the shared prefix layer. Document boundaries
	// are not broadcast: StartDocument is delivered to nobody and
	// EndDocument only to what the document woke, so a machine a document
	// never concerns adds nothing to Deliveries.
	Events     int64
	Deliveries int64
	TriePushes int64

	// Eval summarizes the per-stream evaluation-cost histogram
	// (nanoseconds per scan event, serial streams only): always on, two
	// clock reads per document. Full bucket data via EvalHistogram.
	Eval obs.Stats
}

// Metrics returns the engine's churn and dispatch accounting.
func (e *Engine) Metrics() Metrics {
	ep := e.cur.Load()
	anchored := 0
	for _, slot := range ep.live {
		if ep.anchors[slot] >= 0 {
			anchored++
		}
	}
	groups, keyed := 0, 0
	for _, g := range ep.groups {
		if g != nil {
			groups++
			keyed += g.Size()
		}
	}
	return Metrics{
		Epoch:              ep.seq,
		Compiles:           e.compiles.Load(),
		Compactions:        e.compactions.Load(),
		ShardRebalances:    e.shardRebalances.Load(),
		Slots:              len(ep.progs),
		Live:               len(ep.live),
		Garbage:            ep.garbage,
		TrieNodes:          ep.trie.Live(),
		TrieGarbage:        ep.trie.Garbage(),
		AnchoredMachines:   anchored,
		TrieGrafts:         e.trieGrafts.Load(),
		TriePrunes:         e.triePrunes.Load(),
		TrieCompactions:    e.trieCompactions.Load(),
		ValueGroups:        groups,
		ValueKeyedMachines: keyed,
		Events:             e.events.Load(),
		Deliveries:         e.deliveries.Load(),
		TriePushes:         e.triePushes.Load(),
		Eval:               e.evalHist.Snapshot().Stats(),
	}
}
