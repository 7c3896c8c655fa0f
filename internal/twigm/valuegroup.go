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
// filed under it. One GroupRun evaluates the whole group: it pushes one entry
// per matching element, records the fragment once and accumulates the
// string-value once, and at the end tag looks the value up and confirms the
// candidate for the members filed under it alone.
//
// Equivalence is exact. Every member's machine would make the same pushes on
// the same events, create the same candidates (the same Seq numbers and
// offsets), close the same fragments, resolve each candidate at the same pop
// and release it from the same ordered window at the same event. Only whether
// a candidate is emitted or dropped depends on the literal. So a member's
// results are the group's candidates confirmed for its literal, delivered at
// the points its machine would deliver them, and its statistics are the
// group's counters with its own emitted/dropped split (Stats).
package twigm

import (
	"fmt"
	"slices"

	"repro/internal/sax"
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
	return GroupKey{Anchor: anchor, Axis: p.root.axis, Name: p.root.name}
}

// ValueMember is one member of a value group: an ID the caller assigns (the
// engine's machine slot) and the literal its program compares with.
type ValueMember struct {
	ID      int32
	Literal string
}

// ValueGroup is the routing table of one value group: its members filed by
// literal, each literal's members in ascending ID order. It is immutable once
// published; With and Without build changed copies, sharing every member list
// they do not touch.
//
//vitex:cow
type ValueGroup struct {
	key     GroupKey
	step    node // the members' element step: name test and axis
	buckets []valueBucket
	byValue map[string]int32 // literal -> index in buckets
	size    int
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
	m := p.root
	g := &ValueGroup{
		key:     p.GroupKey(anchor),
		step:    node{kind: xpath.Element, name: m.name, prefix: m.prefix, local: m.local, nameID: m.nameID, axis: m.axis},
		byValue: make(map[string]int32),
	}
	for _, mb := range members {
		b := g.bucket(mb.Literal)
		g.buckets[b].members = append(g.buckets[b].members, mb.ID)
	}
	g.size = len(members)
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
	return next
}

// Only returns the group restricted to the members keep accepts (a parallel
// shard's); nil when none is left.
//
//vitex:cowmut builds a group nothing else can see yet
func (g *ValueGroup) Only(keep func(id int32) bool) *ValueGroup {
	next := &ValueGroup{key: g.key, step: g.step, byValue: make(map[string]int32)}
	for _, bk := range g.buckets {
		var ms []int32
		for _, id := range bk.members {
			if keep(id) {
				ms = append(ms, id)
			}
		}
		if len(ms) > 0 {
			next.byValue[bk.literal] = int32(len(next.buckets))
			next.buckets = append(next.buckets, valueBucket{literal: bk.literal, members: ms})
			next.size += len(ms)
		}
	}
	if next.size == 0 {
		return nil
	}
	return next
}

// Key returns the group's key.
func (g *ValueGroup) Key() GroupKey { return g.key }

// NameID returns the symbol ID of the local name the members' step tests:
// the element name the group subscribes to.
func (g *ValueGroup) NameID() int32 { return g.step.nameID }

// Size returns the number of members.
func (g *ValueGroup) Size() int { return g.size }

// Buckets returns the number of distinct literals.
func (g *ValueGroup) Buckets() int { return len(g.buckets) }

// Members returns the IDs filed under bucket b, ascending. The slice is the
// group's own; callers must not modify it.
func (g *ValueGroup) Members(b int32) []int32 { return g.buckets[b].members }

// ---- group evaluation ----

// groupEntry is one open element that path-matches the group's step: its
// candidate and its string-value so far.
type groupEntry struct {
	level int
	cand  *candidate
	text  []byte
}

// groupCounters are the statistics every member counts alike: all of Stats
// but the fate of its candidates, plus how many candidates have resolved.
type groupCounters struct {
	stats    Stats
	resolved int64
}

// GroupRun evaluates one value group over a stream, once for all of its
// members. A driver delivers it the events its members' machines would see
// (StartElement for the step's name, Text and EndElement while it has live
// entries), then visits the members the event concerns (Due) in its own
// delivery order (Visit), and at the end reads each member's statistics back
// (Stats). Like a Run it records into its driver's recorder and is reset for
// a document when the document first wakes it.
//
//vitex:pooled
type GroupRun struct {
	g      *ValueGroup  //vitex:keep rebound by every Reset
	anchor *AnchorStack //vitex:keep rebound by every Reset
	opts   Options
	trace  *tracer

	stack     []groupEntry
	nextSeq   int64
	cands     candArena
	liveCands int
	fragmentSet
	ordered orderedBuf
	// now counts what every member counts alike; matches counts, by bucket,
	// the candidates confirmed for its members.
	now     groupCounters
	matches []int64

	// What the last event that pushed or popped did, for the visits that
	// follow it: its index (at), the entry's level, the candidate it created
	// (pushed) or resolved (popped), what the ordered window released, and
	// the counters as they stood before it (prev; prevBucket is the bucket it
	// confirmed a candidate for, -1 when none).
	at         int64
	level      int
	pushed     *candidate
	popped     *candidate
	released   []*candidate
	prev       groupCounters
	prevBucket int32
}

// Reset prepares the run for a document: the members of vg, evaluated with
// opts (EmitFrom receives each member's results under the ID its visit
// names), recording into rec, with the step's axis checked against anchor
// (nil for a group at the document root).
func (g *GroupRun) Reset(vg *ValueGroup, opts Options, rec *Recorder, anchor *AnchorStack) {
	g.g, g.anchor, g.opts = vg, anchor, opts
	g.trace = nil
	if opts.Trace != nil {
		g.trace = &tracer{w: opts.Trace}
	}
	g.stack = g.stack[:0]
	g.nextSeq = 0
	g.cands.reset()
	g.liveCands = 0
	g.fragmentSet.reset(rec)
	g.ordered.reset()
	g.now = groupCounters{}
	g.matches = g.matches[:0]
	for range vg.buckets {
		g.matches = append(g.matches, 0)
	}
	g.at, g.level = 0, 0
	g.pushed, g.popped = nil, nil
	g.released = g.released[:0]
	g.prev, g.prevBucket = groupCounters{}, -1
}

// Detach drops what the run holds of its stream's consumer — the emit hook
// and the trace writer — keeping every warmed-up allocation.
func (g *GroupRun) Detach() {
	g.opts.EmitFrom, g.opts.Trace = nil, nil
	g.trace = nil
}

// LiveEntries reports the number of open entries: while there are any, the
// group wants text and end-element events.
func (g *GroupRun) LiveEntries() int { return len(g.stack) }

// At returns the index of the last event that pushed or popped an entry.
func (g *GroupRun) At() int64 { return g.at }

// mark starts an event that changes the members' state.
//
//vitex:hotpath
func (g *GroupRun) mark(idx int64) {
	g.at = idx
	g.prev, g.prevBucket = g.now, -1
}

// StartElement pushes an entry when the element matches the step's name test
// and axis, and reports whether it did.
//
//vitex:hotpath
func (g *GroupRun) StartElement(ev *sax.Event, idx int64) bool {
	g.pushed, g.popped, g.released = nil, nil, g.released[:0]
	m := &g.g.step
	if !nameMatches(m, ev) {
		return false
	}
	d := ev.Depth
	if g.g.key.Anchor >= 0 {
		if !g.anchor.CompatElem(m.axis, d) {
			return false
		}
	} else if m.axis == xpath.Child && d != 1 {
		return false
	}
	g.mark(idx)
	if n := len(g.stack); n < cap(g.stack) {
		g.stack = g.stack[:n+1]
		e := &g.stack[n]
		e.level, e.text = d, e.text[:0]
	} else {
		g.stack = append(g.stack, groupEntry{level: d})
	}
	st := &g.now.stats
	st.Pushes++
	st.PeakStackEntries = max(st.PeakStackEntries, len(g.stack))
	c := g.cands.next()
	c.seq, c.offset, c.bucket = g.nextSeq, ev.Offset, -1
	g.nextSeq++
	st.CandidatesCreated++
	g.liveCands++
	st.PeakLiveCandidates = max(st.PeakLiveCandidates, g.liveCands)
	if g.opts.Ordered {
		g.ordered.expect(c.seq)
	}
	if !g.opts.CountOnly {
		g.open(c, d)
	}
	g.stack[len(g.stack)-1].cand = c
	g.level, g.pushed = d, c
	return true
}

// Text extends the string-value of every open entry.
//
//vitex:hotpath
func (g *GroupRun) Text(ev *sax.Event) {
	for i := range g.stack {
		g.stack[i].text = append(g.stack[i].text, ev.Text...)
	}
}

// EndElement pops the entry of the ending element, if it has one, and
// reports whether it did: the entry's fragment is complete, its string-value
// final, and its candidate confirmed for the members filed under that value
// and dropped for every other.
//
//vitex:hotpath
func (g *GroupRun) EndElement(ev *sax.Event, idx int64) bool {
	g.pushed, g.popped, g.released = nil, nil, g.released[:0]
	n := len(g.stack)
	if n == 0 || g.stack[n-1].level != ev.Depth {
		return false
	}
	g.mark(idx)
	e := &g.stack[n-1]
	c := e.cand
	st := &g.now.stats
	if c.open {
		// Still pending here, as in every member's machine: the span waits
		// in the recorder until the candidate is delivered or the buffer
		// resets.
		g.closeAt(ev.Depth, st)
		g.rec.keep(c)
	}
	g.liveCands--
	g.now.resolved++
	if b, ok := g.g.byValue[string(e.text)]; ok {
		c.state, c.bucket, c.confirmedAt = candConfirmed, b, idx
		g.matches[b]++
		g.prevBucket = b
	} else {
		c.state = candDropped
		g.forget(c, st)
	}
	if g.opts.Ordered {
		if c.state == candConfirmed {
			g.ordered.resolve(c.seq, c)
		} else {
			g.ordered.resolve(c.seq, nil)
		}
		for {
			out, ok := g.ordered.pop()
			if !ok {
				break
			}
			if out != nil {
				g.released = append(g.released, out)
			}
		}
	}
	g.stack = g.stack[:n-1]
	st.Pops++
	g.level, g.popped = ev.Depth, c
	return true
}

// EndDocument checks the end-of-document invariants every member's machine
// checks.
func (g *GroupRun) EndDocument() error {
	if len(g.stack) != 0 {
		return fmt.Errorf("twigm: internal: %d entries live at end of document", len(g.stack))
	}
	return g.ordered.checkDrained()
}

// Due appends to dst, once each, the buckets whose members the last event
// has something for: results to emit, or — when tracing, where every member
// logs its own transitions — any push or pop at all.
//
//vitex:hotpath
func (g *GroupRun) Due(dst []int32) []int32 {
	if g.pushed == nil && g.popped == nil {
		return dst
	}
	if g.trace.on() {
		for b := range g.g.buckets {
			dst = append(dst, int32(b))
		}
		return dst
	}
	start := len(dst)
	if c := g.popped; c != nil && c.state == candConfirmed {
		dst = append(dst, c.bucket)
	}
	for _, c := range g.released {
		if !slices.Contains(dst[start:], c.bucket) {
			dst = append(dst, c.bucket)
		}
	}
	return dst
}

// Visit hands member id, filed under bucket, what the last event gave its
// machine: the candidate resolved for its literal as a result when it
// delivers in confirmation order, or the results the ordered window released
// for it when ordered. Results go to Options.EmitFrom under id; the first
// error it returns is returned, after the member's other results of the event
// went out as its machine would send them.
//
//vitex:hotpath
func (g *GroupRun) Visit(id int, bucket int32, ordered bool) error {
	tracing := g.trace.on()
	if g.pushed != nil {
		if tracing {
			g.traceStart()
		}
		return nil
	}
	c := g.popped
	if c == nil {
		return nil
	}
	mine := c.state == candConfirmed && c.bucket == bucket
	if tracing {
		g.traceResolve(c, mine)
	}
	var err error
	if mine && !ordered {
		err = g.emit(id, c)
	}
	if ordered {
		for _, out := range g.released {
			if out.bucket != bucket {
				continue
			}
			if e := g.emit(id, out); err == nil {
				err = e
			}
		}
	}
	if tracing {
		g.tracePop(mine)
	}
	return err
}

// emit delivers one result to member id, its value made a string now — once,
// for every member it goes to.
//
//vitex:hotpath
func (g *GroupRun) emit(id int, c *candidate) error {
	res := Result{
		Seq:         c.seq,
		NodeOffset:  c.offset,
		Value:       g.rec.fragment(c),
		ConfirmedAt: c.confirmedAt,
		DeliveredAt: g.at,
	}
	if g.trace.on() {
		g.trace.emit(&res)
	}
	if g.opts.EmitFrom == nil {
		return nil
	}
	return g.opts.EmitFrom(id, res)
}

// Stats returns the statistics of a member filed under bucket, counted as its
// own machine counts them. before selects the counters as they stood before
// the last event that pushed or popped (At), for a member whose machine a
// failed stream never delivered that event to.
func (g *GroupRun) Stats(bucket int32, before bool) Stats {
	c, matched := g.now, g.matches[bucket]
	if before {
		c = g.prev
		if g.prevBucket == bucket {
			matched--
		}
	}
	st := c.stats
	// The bytes a member's fragments spanned read the recorder's position,
	// which the event had moved before any machine saw it: the same either
	// way.
	st.PeakBufferedBytes = g.now.stats.PeakBufferedBytes
	if len(g.active) > 0 {
		g.notePeak(&st)
	}
	st.CandidatesEmitted = matched
	st.CandidatesDropped = c.resolved - matched
	// A dropped candidate leaves the one entry that held it: one move.
	st.CandMoves = st.CandidatesDropped
	return st
}

// traceStart logs a member's push, as its machine would.
func (g *GroupRun) traceStart() {
	g.trace.push(&g.g.step, g.level)
	g.trace.candidate(g.pushed)
}

// traceResolve logs a member's verdict on the popped candidate.
func (g *GroupRun) traceResolve(c *candidate, mine bool) {
	if mine {
		g.trace.satisfied(&g.g.step, &entry{level: g.level})
		g.trace.confirm(c)
	} else {
		g.trace.drop(c)
	}
}

// tracePop logs a member's pop.
func (g *GroupRun) tracePop(mine bool) {
	g.trace.pop(&g.g.step, &entry{level: g.level, satisfied: mine})
}
