// Value-keyed dispatch: equality subscriptions wake only when the value is
// their literal.
//
// The paper's many-subscriptions scenario is dominated by queries that differ
// only in a literal: //channel//article/head/f17[. = 'v3'] for every field and
// value a subscriber cares about. Behind the shared prefix trie each such
// query is a one-step residual machine, and every one of them pushes, records
// and pops on every <f17>, although only the machines whose literal equals the
// element's string-value can ever emit.
//
// A program is value-keyed when its prefix-shared residual is exactly one
// element step — the output node, right behind its shared prefix (or the
// whole query when there is none) — whose only predicate is [. = 'literal']
// with a quoted string, which Comparison.Eval decides by exact string
// equality. Value-keyed programs with one anchor, axis and name test form a
// value group (ValueGroup): a table from literal to the ascending member IDs
// filed under it. One ordinary Run of the members' shape evaluates the whole
// group (BindGroup): it pushes one entry per matching element, records the
// fragment once and accumulates the string-value once, and at the entry's pop
// looks the value up in the table instead of comparing it with one literal.
// The candidate is confirmed for the bucket the value selects and emitted
// once per member filed there; on a miss it is dropped.
//
// Equivalence is exact. Every member's machine would make the same pushes on
// the same events, create the same candidates (the same Seq numbers and
// offsets), close the same fragments, resolve each candidate at the same pop
// and release it from the same ordered window at the same event. Only whether
// a candidate is emitted or dropped depends on the literal. So a member's
// results are the run's candidates confirmed for its literal, delivered at
// the points its machine would deliver them, and its statistics are the run's
// counters with its own emitted/dropped split (MemberStats).
package twigm

import (
	"slices"

	"repro/internal/xpath"
)

// valueLiteral reports whether a residual starting at spine node n is
// value-keyed, and with what literal.
func valueLiteral(n *xpath.Node) (string, bool) {
	if n.Kind != xpath.Element || n.Name == "*" || n.Next != nil || n.Cmp != nil ||
		n.Pred == nil || n.Pred.Op != xpath.PredSelf {
		return "", false
	}
	if c := n.Pred.Self; c.Op == xpath.OpEq && !c.IsNum {
		return c.Literal, true
	}
	return "", false
}

// ValueKey reports whether the program is value-keyed, and with what literal:
// compiled by CompileShared, its residual is exactly one element step, the
// output node, whose only predicate is [. = 'literal'] with a quoted string.
func (p *Program) ValueKey() (string, bool) { return p.literal, p.valueKeyed }

// GroupKey identifies a value group: the anchor the members' step follows (a
// trie node, -1 for the document root) and the step's axis and name test.
type GroupKey struct {
	Anchor int32
	Axis   xpath.Axis
	Name   string
}

// GroupKey returns the key of a value-keyed program anchored at anchor.
func (p *Program) GroupKey(anchor int32) GroupKey {
	return GroupKey{Anchor: anchor, Axis: p.root().axis, Name: p.name(p.root())}
}

// ValueMember is one member of a value group: an ID the caller assigns (the
// engine's machine slot) and the literal its program compares with.
type ValueMember struct {
	ID      int32
	Literal string
}

// ValueGroup is the member table of one value group: its members filed by
// literal, each literal's members in ascending ID order. It is immutable once
// published; With and Without build changed copies, sharing every member list
// they do not touch.
//
//vitex:cow
type ValueGroup struct {
	key     GroupKey
	buckets []valueBucket
	byValue map[string]int32 // literal -> index in buckets
	size    int
	host    int32 // the lowest member ID
}

// valueBucket is the members filed under one literal.
type valueBucket struct {
	literal string
	members []int32
}

// NewValueGroup builds the group of value-keyed program p's shape at anchor
// with the given members, which come in ascending ID order.
//
//vitex:cowmut builds a group nothing else can see yet
func NewValueGroup(p *Program, anchor int32, members []ValueMember) *ValueGroup {
	g := &ValueGroup{key: p.GroupKey(anchor), byValue: make(map[string]int32)}
	for _, mb := range members {
		b := g.bucket(mb.Literal)
		g.buckets[b].members = append(g.buckets[b].members, mb.ID)
	}
	g.size = len(members)
	g.host = members[0].ID
	return g
}

// bucket returns the index of literal's bucket, adding an empty one if needed.
//
//vitex:cowmut writes only into an unpublished group
func (g *ValueGroup) bucket(literal string) int32 {
	b, ok := g.byValue[literal]
	if !ok {
		b = int32(len(g.buckets))
		g.byValue[literal] = b
		g.buckets = append(g.buckets, valueBucket{literal: literal})
	}
	return b
}

// clone copies the group's tables for a change; member lists stay shared.
//
//vitex:cowmut builds the copy a change writes into
func (g *ValueGroup) clone() *ValueGroup {
	next := *g
	next.buckets = slices.Clone(g.buckets)
	next.byValue = make(map[string]int32, len(g.byValue)+1)
	for lit, b := range g.byValue {
		next.byValue[lit] = b
	}
	return &next
}

// With returns a copy of the group with member id filed under literal.
//
//vitex:cowmut writes only into the unpublished copy
func (g *ValueGroup) With(id int32, literal string) *ValueGroup {
	next := g.clone()
	b := next.bucket(literal)
	ms := next.buckets[b].members
	i, _ := slices.BinarySearch(ms, id)
	// A clipped list makes Insert copy: older groups still read ms.
	next.buckets[b].members = slices.Insert(slices.Clip(ms), i, id)
	next.size++
	next.host = min(next.host, id)
	return next
}

// Without returns a copy of the group without member id, filed under literal;
// nil when it was the last member.
//
//vitex:cowmut writes only into the unpublished copy
func (g *ValueGroup) Without(id int32, literal string) *ValueGroup {
	if g.size <= 1 {
		return nil
	}
	next := g.clone()
	b := next.byValue[literal]
	if ms := without(next.buckets[b].members, id); len(ms) > 0 {
		next.buckets[b].members = ms
	} else {
		next.buckets = slices.Delete(next.buckets, int(b), int(b)+1)
		delete(next.byValue, literal)
		for i := int(b); i < len(next.buckets); i++ {
			next.byValue[next.buckets[i].literal] = int32(i)
		}
	}
	next.size--
	if id == next.host {
		next.host = next.buckets[0].members[0]
		for _, bk := range next.buckets[1:] {
			next.host = min(next.host, bk.members[0])
		}
	}
	return next
}

// Key returns the group's key.
func (g *ValueGroup) Key() GroupKey { return g.key }

// Host returns the lowest member ID: the member whose machine runs for the
// whole group.
func (g *ValueGroup) Host() int32 { return g.host }

// Size returns the number of members.
func (g *ValueGroup) Size() int { return g.size }

// Buckets returns the number of distinct literals.
func (g *ValueGroup) Buckets() int { return len(g.buckets) }

// Members returns the IDs filed under bucket b, ascending. The slice is the
// group's own; callers must not modify it.
func (g *ValueGroup) Members(b int32) []int32 { return g.buckets[b].members }

// ---- group evaluation ----

// BindGroup makes the run, a machine of the members' shape, evaluate value
// group g for all of its members over the current stream: at an entry's pop
// its string-value selects the bucket the candidate is confirmed for, and the
// result goes to Options.EmitFrom once per member filed there, under the
// member's ID. Under Options.Ordered a member for which unordered (when
// non-nil) reports true gets its results in confirmation order, the others in
// document order. Reset unbinds the group.
func (r *Run) BindGroup(g *ValueGroup, unordered func(id int) bool) {
	r.group, r.unordered = g, unordered
	r.hits = r.hits[:0]
	for range g.buckets {
		r.hits = append(r.hits, 0)
	}
}

// Group returns the value group the run evaluates (BindGroup), nil for a run
// of its own query.
func (r *Run) Group() *ValueGroup { return r.group }

// selectBucket decides a group's entry at its pop: the bucket its final
// string-value selects, which its candidate is confirmed for, or none. A
// lookup keyed by the accumulated bytes, which does not copy them.
//
//vitex:hotpath
func (r *Run) selectBucket(e *entry) bool {
	b, ok := r.group.byValue[string(e.textBuf)]
	if !ok {
		return false
	}
	for _, c := range e.cands {
		c.bucket = b
	}
	r.hits[b]++
	return true
}

// MemberStats returns the statistics of the members filed under bucket b of
// the run's group, as each member's own machine counts them: SplitStats of
// the run's, for the candidates that bucket's literal confirmed.
func (r *Run) MemberStats(b int32) Stats { return SplitStats(r.Stats(), r.hits[b]) }

// Hits returns how many candidates bucket b's literal confirmed this
// document. The members of every literal that confirmed none count alike.
func (r *Run) Hits(b int32) int64 { return r.hits[b] }

// SplitStats returns st, the statistics of a run evaluating a value group, as
// the machine of a member whose literal confirmed hits of the run's
// candidates counts them: the fate of each candidate told for that literal. A
// candidate another literal confirmed is one the member's machine dropped,
// and a dropped candidate leaves the one entry that held it: one move.
func SplitStats(st Stats, hits int64) Stats {
	resolved := st.CandidatesEmitted + st.CandidatesDropped
	st.CandidatesEmitted = hits
	st.CandidatesDropped = resolved - hits
	st.CandMoves = st.CandidatesDropped
	return st
}

// emitMembers delivers a result of the run's group to the members filed under
// the bucket c was confirmed for whose delivery order is at hand: every one
// without Options.Ordered, else those in confirmation order when early and
// those in document order when not.
//
//vitex:hotpath
func (r *Run) emitMembers(c *candidate, res *Result, early bool) {
	for _, id := range r.group.buckets[c.bucket].members {
		if !r.opts.Ordered || (r.unordered != nil && r.unordered(int(id))) == early {
			r.emitTo(int(id), res)
		}
	}
}
