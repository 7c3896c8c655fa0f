// Prefix-shared twig compilation: the set-level layer of the TwigM builder.
//
// The paper's pub/sub scenario runs thousands of standing queries over one
// feed, and real subscription sets overlap heavily: //channel//article/head
// prefixes repeat across queries that diverge only in their last steps.
// Compiling every query into an independent machine makes each of those
// machines push, pop and axis-check the SAME prefix elements — per-event
// cost grows linearly with the set even when routed dispatch skips machines
// an event cannot concern, because prefix names concern every machine that
// mentions them.
//
// This file factors the shared work out. A query's spine is split at the
// first step that carries per-query semantics (a predicate, a value
// comparison, or the output node); the leading purely structural steps —
// name test plus axis, nothing else — form its prefix profile. Profiles of
// all queries in a set merge into one axis-step Trie, evaluated ONCE per
// event by a PrefixRun; each query compiles into a residual machine
// (CompileShared) whose root is anchored at its trie node and consults the
// shared stack instead of owning prefix stacks.
//
// Equivalence is exact, not approximate. A purely structural spine step
// compiles to a machine node whose condition is just "my continuation
// matched": its entries never gate a candidate (deliverCand passes straight
// through a satisfied entry, and the flag that satisfies it is the very
// propagation that carries the candidate), never prune, and never buffer
// text. So the only information the suffix ever reads from the prefix is
// "does an axis-compatible chain of open prefix entries exist at this
// level" — exactly what the shared trie stack answers. Results (Value, Seq,
// NodeOffset, ConfirmedAt, DeliveredAt) and per-machine emission order are
// byte-identical to an unshared run; the randomized differential campaign
// pins this. Steps carrying predicates stay per-query: their entry state
// (flag bitsets, parked candidates) is query-specific, which is the safety
// boundary of "structural predicates where safe" — safe means none.
package twigm

import (
	"strings"

	"repro/internal/cow"
	"repro/internal/sax"
	"repro/internal/xpath"
)

// TrieStep is one shareable spine step: an element name test plus its axis.
// Steps match events by the symbol ID of the test's local name; the name as
// written holds a prefixed test's prefix.
type TrieStep struct {
	Axis   xpath.Axis
	NameID int32  // symbol ID of the LOCAL name; 0 for "*"
	Name   string // as written ("*" for the wildcard, "p:a" for prefixed)
}

// shareableSteps returns the spine nodes of q that can be factored into a
// shared prefix trie: the longest leading chain of element steps with no
// predicate, no value comparison and a continuation (the output node always
// stays in the residual machine, so every query keeps at least one private
// node to create candidates and record fragments on).
func shareableSteps(q *xpath.Query) []*xpath.Node {
	var steps []*xpath.Node
	for n := q.Root; n != nil; n = n.Next {
		if n.Kind != xpath.Element || n.Pred != nil || n.Cmp != nil || n.Next == nil {
			break
		}
		steps = append(steps, n)
	}
	return steps
}

// PrefixProfile returns q's shareable prefix as trie steps, interning local
// names into syms. An empty profile means the query cannot share (its first
// step already carries per-query semantics).
func PrefixProfile(q *xpath.Query, syms *sax.Symbols) []TrieStep {
	nodes := shareableSteps(q)
	if len(nodes) == 0 {
		return nil
	}
	steps := make([]TrieStep, len(nodes))
	for i, n := range nodes {
		local := n.Local
		if local == "" && n.Name != "" {
			_, local = sax.SplitName(n.Name)
		}
		st := TrieStep{Axis: n.Axis, Name: n.Name}
		if n.Name != "*" {
			st.NameID = syms.Intern(local)
		}
		steps[i] = st
	}
	return steps
}

// String renders a profile in path syntax (diagnostics).
func ProfileString(steps []TrieStep) string {
	var b strings.Builder
	for _, st := range steps {
		b.WriteString(st.Axis.String())
		b.WriteString(st.Name)
	}
	return b.String()
}

// ---- the shared prefix trie ----

// trieNode is one axis-step of the shared prefix trie. Nodes live inside a
// Trie's copy-on-write node table and follow its discipline: refs and
// children change only along the grafted/pruned path of a fresh clone.
//
//vitex:cow
type trieNode struct {
	step     TrieStep
	prefix   string  // the step's name test's prefix ("" for none)
	parent   int32   // -1 for steps from the document node
	children []int32 // node IDs, used only for graft matching
	// refs counts the live queries whose anchor path passes through this
	// node; 0 marks a dead (pruned) node awaiting compaction.
	refs int32
}

// Trie is an immutable prefix trie over the shareable leading steps of a
// query set. Mutations (Graft, Prune) return a new Trie by structural
// sharing: the node table is copied (O(nodes); a set's trie holds the
// distinct prefixes, not one node per query), the symbol-indexed dispatch
// table is a chunked copy-on-write table a mutation copies only the touched
// chunks of, child and dispatch lists are shared append-only, and lists that
// lose an entry are rebuilt fresh — in-flight evaluations reading an older
// Trie never observe a mutation. Node IDs are stable for
// the life of a node (compaction, which renumbers, builds a fresh Trie and
// re-anchors through the engine's epoch).
//
//vitex:cow
type Trie struct {
	nodes []trieNode
	roots []int32            // nodes with parent == -1
	elem  cow.Table[[]int32] // NameID -> live node IDs with that (non-wildcard) name
	wild  []int32            // live node IDs with name "*"

	live    int // nodes with refs > 0
	garbage int // dead nodes still occupying IDs
}

// NumIDs returns the size of the node-ID space (live + dead); PrefixRun
// stacks are indexed by it.
func (t *Trie) NumIDs() int {
	if t == nil {
		return 0
	}
	return len(t.nodes)
}

// Live returns the number of live shared prefix nodes.
func (t *Trie) Live() int {
	if t == nil {
		return 0
	}
	return t.live
}

// Names reports whether a live node tests the local name with symbol ID id.
func (t *Trie) Names(id int32) bool {
	return t != nil && id > 0 && int(id) < t.elem.Len() && len(t.elem.At(int(id))) > 0
}

// HasWildcard reports whether a live node is a '*' step.
func (t *Trie) HasWildcard() bool { return t != nil && len(t.wild) > 0 }

// Garbage returns the number of dead node IDs awaiting compaction.
func (t *Trie) Garbage() int {
	if t == nil {
		return 0
	}
	return t.garbage
}

// clone copies the outer structure for a mutation: the node table is copied
// (refs and child lists change along the grafted/pruned path), the dispatch
// table is cloned (its writes copy the chunks they land in), inner lists are
// shared.
func (t *Trie) clone() *Trie {
	return &Trie{
		nodes:   append([]trieNode(nil), t.nodes...),
		roots:   t.roots,
		elem:    t.elem.Clone(),
		wild:    t.wild,
		live:    t.live,
		garbage: t.garbage,
	}
}

// findChild looks for an existing live child of parent (-1 = top level)
// matching step.
func (t *Trie) findChild(parent int32, step TrieStep) int32 {
	kids := t.roots
	if parent >= 0 {
		kids = t.nodes[parent].children
	}
	prefix, _ := sax.SplitName(step.Name)
	for _, id := range kids {
		n := &t.nodes[id]
		if n.refs > 0 && n.step.Axis == step.Axis && n.step.NameID == step.NameID && n.prefix == prefix {
			return id
		}
	}
	return -1
}

// Graft merges a profile into the trie and returns the new trie plus the
// anchor node ID (the node of the profile's last step). A nil/empty profile
// returns the receiver unchanged with anchor -1.
func (t *Trie) Graft(steps []TrieStep) (*Trie, int32) {
	if len(steps) == 0 {
		return t, -1
	}
	next := t.clone()
	return next, next.graft(steps)
}

// BuildTrie grafts every profile into one fresh trie, in order, and returns
// it with each profile's anchor (-1 for an empty one): the trie the same
// sequence of Grafts builds, without a copy of the trie per profile.
//
//vitex:cowmut builds a trie nothing else can see yet
func BuildTrie(profiles [][]TrieStep) (*Trie, []int32) {
	t := &Trie{}
	anchors := make([]int32, len(profiles))
	for i, steps := range profiles {
		anchors[i] = -1
		if len(steps) > 0 {
			anchors[i] = t.graft(steps)
		}
	}
	return t, anchors
}

// graft merges a non-empty profile into t in place and returns its anchor.
//
//vitex:cowmut writes only into an unpublished trie (a fresh clone, or BuildTrie's)
func (t *Trie) graft(steps []TrieStep) int32 {
	parent := int32(-1)
	for _, st := range steps {
		id := t.findChild(parent, st)
		if id < 0 {
			id = int32(len(t.nodes))
			prefix, _ := sax.SplitName(st.Name)
			t.nodes = append(t.nodes, trieNode{step: st, prefix: prefix, parent: parent})
			if parent < 0 {
				// Appends may share backing arrays with older tries; they
				// only ever write past those tries' lengths.
				t.roots = append(t.roots, id)
			} else {
				p := &t.nodes[parent]
				p.children = append(p.children, id)
			}
			if st.NameID == sax.SymNone {
				t.wild = append(t.wild, id)
			} else {
				for t.elem.Len() <= int(st.NameID) {
					t.elem.Append(nil)
				}
				t.elem.Set(int(st.NameID), append(t.elem.At(int(st.NameID)), id))
			}
			t.live++
		}
		t.nodes[id].refs++
		parent = id
	}
	return parent
}

// Prune releases one query's anchor path and returns the new trie. Nodes
// whose last reference dies are unlinked from every list (fresh backing —
// older tries keep reading the old lists) and their IDs become garbage.
//
//vitex:cowmut writes only into the unpublished clone
func (t *Trie) Prune(anchor int32) *Trie {
	if anchor < 0 {
		return t
	}
	next := t.clone()
	for id := anchor; id >= 0; {
		n := &next.nodes[id]
		n.refs--
		if n.refs > 0 {
			id = n.parent
			continue
		}
		// Dead: unlink from the parent's child list and the dispatch
		// tables. Children are necessarily dead already (a child's path
		// refs pass through its parent), so no orphan can remain live.
		if n.parent < 0 {
			next.roots = without(next.roots, id)
		} else {
			p := &next.nodes[n.parent]
			p.children = without(p.children, id)
		}
		if n.step.NameID == sax.SymNone {
			next.wild = without(next.wild, id)
		} else {
			next.elem.Set(int(n.step.NameID), without(next.elem.At(int(n.step.NameID)), id))
		}
		next.live--
		next.garbage++
		id = n.parent
	}
	return next
}

// without returns a fresh copy of list with id removed.
func without(list []int32, id int32) []int32 {
	out := make([]int32, 0, len(list))
	for _, v := range list {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// ---- shared trie evaluation ----

// AnchorStack is the open-entry stack of one trie node: the levels (element
// depths) of the currently open elements that path-match the node's step
// chain, in ascending order. Residual machines anchored at the node consult
// it for their root axis checks.
type AnchorStack struct {
	levels []int32
}

// CompatElem reports whether an element or text node at depth d has an
// axis-compatible open prefix entry: a proper ancestor for the descendant
// axis, the immediate parent for the child axis.
//
//vitex:hotpath
func (a *AnchorStack) CompatElem(axis xpath.Axis, d int) bool {
	if a == nil || len(a.levels) == 0 {
		return false
	}
	if axis == xpath.Descendant {
		return int(a.levels[0]) < d
	}
	// Child axis: an entry at exactly d-1. Levels ascend; scan from the
	// top past any same-event entry at d.
	for i := len(a.levels) - 1; i >= 0 && int(a.levels[i]) >= d-1; i-- {
		if int(a.levels[i]) == d-1 {
			return true
		}
	}
	return false
}

// CompatAttr reports whether an attribute of the element at depth d is
// axis-compatible: the owner element itself for the child axis, any
// self-or-ancestor owner for the descendant axis (the descendant-or-self
// expansion of '//@a').
//
//vitex:hotpath
func (a *AnchorStack) CompatAttr(axis xpath.Axis, d int) bool {
	if a == nil || len(a.levels) == 0 {
		return false
	}
	if axis == xpath.Descendant {
		return int(a.levels[0]) <= d
	}
	return int(a.levels[len(a.levels)-1]) == d
}

// Open reports whether any prefix entry is open (routing hint).
//
//vitex:hotpath
func (a *AnchorStack) Open() bool { return a != nil && len(a.levels) > 0 }

// prefixOpen is one open trie entry on the PrefixRun's global LIFO.
type prefixOpen struct {
	id    int32
	level int32
}

// PrefixRun evaluates a Trie over one event stream: the runtime stacks of
// the shared prefix layer, maintained once per scan however many residual
// machines anchor into them. A PrefixRun is single-goroutine state (the
// engine keeps one per pooled session).
type PrefixRun struct {
	trie *Trie
	// stacks[id] is the node's open-entry stack. Pointers are stable from
	// first use, so residual Runs can bind an anchor once per stream.
	stacks []*AnchorStack
	// open is the global LIFO of open entries; entries at the ending
	// element's depth are contiguous at the top.
	open []prefixOpen
	// pushes counts trie entries pushed this stream (dispatch statistics).
	pushes int64
}

// Rebind points the run at a (new) trie, growing the stack table; existing
// AnchorStack pointers stay valid. Call between streams.
func (pr *PrefixRun) Rebind(t *Trie) {
	pr.trie = t
	for len(pr.stacks) < t.NumIDs() {
		pr.stacks = append(pr.stacks, nil)
	}
}

// Stack returns the stable anchor stack for a trie node.
func (pr *PrefixRun) Stack(id int32) *AnchorStack {
	if pr.stacks[id] == nil {
		pr.stacks[id] = &AnchorStack{}
	}
	return pr.stacks[id]
}

// ResetStream clears all open entries for a new document.
func (pr *PrefixRun) ResetStream() {
	for _, e := range pr.open {
		s := pr.stacks[e.id]
		s.levels = s.levels[:0]
	}
	pr.open = pr.open[:0]
	pr.pushes = 0
}

// Pushes returns the number of trie entries pushed this stream.
func (pr *PrefixRun) Pushes() int64 { return pr.pushes }

// HasOpen reports whether any trie entry is open (end-element routing).
//
//vitex:hotpath
func (pr *PrefixRun) HasOpen() bool { return len(pr.open) > 0 }

// StartElement pushes entries for every trie node the event's element
// path-matches, found by the event's name ID (the router refuses a start tag
// without one). Must run before residual machines see the event (anchored
// child-axis attribute tests read the entry pushed for their owner).
//
//vitex:hotpath
func (pr *PrefixRun) StartElement(ev *sax.Event) {
	t := pr.trie
	if t == nil || t.live == 0 {
		return
	}
	d := int32(ev.Depth)
	if id := ev.NameID; id > 0 && int(id) < t.elem.Len() {
		for _, nid := range t.elem.At(int(id)) {
			pr.tryPush(nid, ev, d)
		}
	}
	for _, nid := range t.wild {
		pr.tryPush(nid, ev, d)
	}
}

//vitex:hotpath
func (pr *PrefixRun) tryPush(nid int32, ev *sax.Event, d int32) {
	n := &pr.trie.nodes[nid]
	if n.refs <= 0 {
		return
	}
	if n.prefix != "" && n.prefix != ev.Prefix {
		return
	}
	if n.parent < 0 {
		if n.step.Axis == xpath.Child && d != 1 {
			return
		}
	} else {
		ps := pr.stacks[n.parent]
		if !ps.CompatElem(n.step.Axis, int(d)) {
			return
		}
	}
	s := pr.Stack(nid)
	s.levels = append(s.levels, d)
	pr.open = append(pr.open, prefixOpen{id: nid, level: d})
	pr.pushes++
}

// EndElement pops every trie entry opened at depth d.
//
//vitex:hotpath
func (pr *PrefixRun) EndElement(d int) {
	for len(pr.open) > 0 {
		top := pr.open[len(pr.open)-1]
		if int(top.level) != d {
			return
		}
		s := pr.stacks[top.id]
		s.levels = s.levels[:len(s.levels)-1]
		pr.open = pr.open[:len(pr.open)-1]
	}
}

// ---- anchored compilation ----

// CompileShared builds the prefix-shared form of q: the shareable leading
// steps become the program's Profile (to be grafted into a set's Trie by
// the caller) and the remaining suffix compiles into a residual machine
// whose root is anchored — its axis checks read an AnchorStack bound per
// stream via Run.BindAnchor instead of private prefix stacks. A query with
// an empty profile compiles like CompileWith. Either way the program is
// marked value-keyed when its residual has the shape value groups evaluate
// (ValueKey).
//
// NumNodes counts only residual nodes — the per-query footprint under
// sharing; the stored profile re-anchors the program in a rebuilt trie.
func CompileShared(q *xpath.Query, syms *sax.Symbols) (*Program, error) {
	if syms == nil {
		syms = sax.NewSymbols()
	}
	profile := PrefixProfile(q, syms)
	start := q.Root
	for range profile {
		start = start.Next
	}
	p, err := compileFrom(q, start, syms, profile)
	if err != nil {
		return nil, err
	}
	p.literal, p.valueKeyed = valueLiteral(start)
	return p, nil
}

// Anchored reports whether the program's root consults a shared prefix
// stack (compiled by CompileShared with a non-empty profile).
func (p *Program) Anchored() bool { return p.anchored }

// Profile returns the shared prefix steps factored out of the program's
// query (nil for unanchored programs), in a fresh slice. The engine grafts it
// into its trie; trie compaction re-grafts it to re-anchor without
// recompiling.
func (p *Program) Profile() []TrieStep {
	var steps []TrieStep
	for s := p.list(p.profile); len(s) > 0; s = s[profileInts:] {
		steps = append(steps, TrieStep{Axis: xpath.Axis(s[0]), NameID: s[1], Name: p.str(span{s[2], s[3]})})
	}
	return steps
}

// BindAnchor points an anchored run at the shared prefix stack of its trie
// node for the next stream. The engine rebinds before every stream (pooled
// sessions may have resynced to a different trie). An anchored run with a
// nil anchor matches nothing.
func (r *Run) BindAnchor(a *AnchorStack) { r.anchor = a }
