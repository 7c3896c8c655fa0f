// Package naive is the baseline the ViteX paper argues against (§1): a
// streaming XPath engine that explicitly stores pattern matches and
// enumerates them to test predicates. It is correct — its results are
// cross-checked against the DOM oracle and TwigM in tests — but its state is
// the set of all partial embeddings of the query twig, which is exponential
// in the query size on recursive data ("the number of pattern matches can be
// exponential, and therefore the approach has a worst case complexity which
// is exponential in the query size"). Experiment E5 measures exactly this
// blowup against TwigM's polynomial encoding.
//
// The engine covers the paper's fragment XP{/,//,*,[]} with conjunctive
// predicates (including value comparisons and self-comparisons). The 'or'
// connective — an extension of this repository's TwigM engine, not part of
// the paper's fragment — is rejected with ErrUnsupported.
package naive

import (
	"errors"
	"sort"
	"strings"

	"repro/internal/sax"
	"repro/internal/xpath"
)

// ErrMatchLimit is returned when the number of live pattern matches exceeds
// Options.MaxMatches — the guard that lets benchmarks probe the blowup
// without exhausting memory.
var ErrMatchLimit = errors.New("naive: pattern match limit exceeded")

// ErrUnsupported is returned for queries outside the conjunctive fragment.
var ErrUnsupported = errors.New("naive: 'or' predicates are outside the conjunctive XP{/,//,*,[]} fragment")

// Result mirrors twigm.Result for cross-engine comparison.
type Result struct {
	Seq   int64
	Value string
}

// Options configures a run.
type Options struct {
	// MaxMatches caps live partial pattern matches (0 = no cap).
	MaxMatches int
	// Emit receives solutions in confirmation order; nil collects only.
	Emit func(Result) error
}

// Stats counts the work that makes this engine the exponential baseline.
type Stats struct {
	Events         int64
	MatchesCreated int64 // partial pattern matches materialized
	MatchesKilled  int64
	PeakMatches    int // high-water mark of live matches
	Solutions      int64
}

// Engine is the compiled form of a query for the naive evaluator.
type Engine struct {
	query *xpath.Query
	nodes []*qnode
	out   int // output node index
	// needsText: some element node carries a comparison, so open
	// elements accumulate string-values.
	needsText bool
}

// qnode is a flattened query node.
type qnode struct {
	idx  int
	kind xpath.Kind
	name string
	// prefix/local split of the name test: matching is on the local name,
	// with the prefix as an extra requirement when non-empty.
	prefix   string
	local    string
	axis     xpath.Axis
	parent   int // -1 for the query root
	children []int
	// cmp is the inline value test for attribute/text nodes (final at
	// binding time).
	cmp *xpath.Comparison
	// cmps are the element-node comparisons (trailing path comparison
	// plus any [.=...] self-predicates), evaluated at the element's end
	// tag against its complete string-value.
	cmps []*xpath.Comparison
}

// matchesElem reports whether the event's element name satisfies q's name
// test (wildcard, or equal local names plus an equal prefix when the test is
// prefixed) — the same semantics as TwigM and the DOM oracle.
func (q *qnode) matchesElem(ev *sax.Event) bool {
	if q.name == "*" {
		return true
	}
	if q.local != ev.LocalName() {
		return false
	}
	return q.prefix == "" || q.prefix == ev.PrefixName()
}

// matchesAttr is matchesElem for attributes; namespace declarations never
// match.
func (q *qnode) matchesAttr(a *sax.Attr) bool {
	if a.IsNamespaceDecl() {
		return false
	}
	if q.local != a.LocalName() {
		return false
	}
	return q.prefix == "" || q.prefix == a.PrefixName()
}

// Compile flattens the query tree in pre-order. It returns ErrUnsupported
// for queries with 'or' predicates.
func Compile(q *xpath.Query) (*Engine, error) {
	e := &Engine{query: q, out: -1}
	if err := e.addChain(q.Root, -1); err != nil {
		return nil, err
	}
	if e.out < 0 {
		return nil, errors.New("naive: internal: output node not found")
	}
	return e, nil
}

// addChain adds the nodes of a path chain, the first hanging off parentIdx.
func (e *Engine) addChain(n *xpath.Node, parentIdx int) error {
	prev := parentIdx
	for ; n != nil; n = n.Next {
		qi := &qnode{
			idx:    len(e.nodes),
			kind:   n.Kind,
			name:   n.Name,
			prefix: n.Prefix,
			local:  n.Local,
			axis:   n.Axis,
			parent: prev,
		}
		if qi.kind != xpath.Text && qi.local == "" && qi.name != "" {
			qi.prefix, qi.local = sax.SplitName(qi.name)
		}
		e.nodes = append(e.nodes, qi)
		if prev >= 0 {
			e.nodes[prev].children = append(e.nodes[prev].children, qi.idx)
		}
		if n == e.query.Output {
			e.out = qi.idx
		}
		if n.Cmp != nil {
			if n.Kind == xpath.Element {
				qi.cmps = append(qi.cmps, n.Cmp)
				e.needsText = true
			} else {
				qi.cmp = n.Cmp
			}
		}
		if err := e.addPred(n.Pred, qi); err != nil {
			return err
		}
		prev = qi.idx
	}
	return nil
}

// addPred flattens a conjunctive predicate expression onto owner.
func (e *Engine) addPred(p *xpath.PredExpr, owner *qnode) error {
	if p == nil {
		return nil
	}
	switch p.Op {
	case xpath.PredTrue:
		return nil
	case xpath.PredSelf:
		owner.cmps = append(owner.cmps, p.Self)
		e.needsText = true
		return nil
	case xpath.PredLeaf:
		return e.addChain(p.Leaf, owner.idx)
	case xpath.PredAnd:
		for _, k := range p.Kids {
			if err := e.addPred(k, owner); err != nil {
				return err
			}
		}
		return nil
	default: // PredOr
		return ErrUnsupported
	}
}

// MustCompile compiles a query string (test/bench helper).
func MustCompile(query string) *Engine {
	e, err := Compile(xpath.MustParse(query))
	if err != nil {
		panic(err)
	}
	return e
}

// match is one explicitly stored partial pattern match: a partial embedding
// of the query twig. binds[i] is the XML node id bound to query node i (-1
// unbound); levels[i] its depth.
type match struct {
	binds      []int32
	levels     []int32
	bound      int
	pendingCmp int
	dead       bool
}

// openElem is one element on the document stack.
type openElem struct {
	id   int32
	text *strings.Builder
}

// cand is a potential solution (a binding of the output node).
type cand struct {
	id        int32
	seq       int64
	refs      int
	confirmed bool
	emitted   bool
	closed    bool
	value     string
	frag      *fragRec
}

// Run is one streaming evaluation; it implements sax.Handler.
type Run struct {
	eng    *Engine
	opts   Options
	nextID int32
	open   []openElem
	ms     []*match
	cands  map[int32]*cand
	seq    int64
	stats  Stats
	failed error
}

// Start begins a run.
func (e *Engine) Start(opts Options) *Run {
	r := &Run{eng: e, opts: opts, cands: map[int32]*cand{}}
	seed := &match{binds: make([]int32, len(e.nodes)), levels: make([]int32, len(e.nodes))}
	for i := range seed.binds {
		seed.binds[i] = -1
	}
	r.ms = append(r.ms, seed)
	return r
}

// Count returns solutions so far.
func (r *Run) Count() int64 { return r.stats.Solutions }

// Stats returns a snapshot.
func (r *Run) Stats() Stats { return r.stats }

// HandleBatch implements sax.Handler.
func (r *Run) HandleBatch(evs []sax.Event) error {
	return sax.PerEvent(r.handle).HandleBatch(evs)
}

func (r *Run) handle(ev *sax.Event) error {
	if r.failed != nil {
		return r.failed
	}
	r.stats.Events++
	switch ev.Kind {
	case sax.StartElement:
		r.startElement(ev)
	case sax.EndElement:
		r.endElement(ev)
	case sax.Text:
		r.text(ev)
	}
	return r.failed
}

func (r *Run) fail(err error) {
	if r.failed == nil {
		r.failed = err
	}
}

// compat reports whether match m's binding of q's parent is axis-compatible
// with a new node at depth d (d = owner depth for attributes, text depth for
// text nodes).
func (r *Run) compat(m *match, q *qnode, d int) bool {
	if q.parent < 0 {
		// Axis from the document node.
		switch q.kind {
		case xpath.Element:
			return q.axis == xpath.Descendant || d == 1
		default:
			// //@a and //text() reach everything; /@a and /text()
			// reach nothing (the document node has neither).
			return q.axis == xpath.Descendant
		}
	}
	pid := m.binds[q.parent]
	if pid < 0 {
		return false
	}
	pl := int(m.levels[q.parent])
	// The bound parent must still be open (an ancestor of the parse
	// point): open[pl-1] is the unique open element at its level.
	if pl > len(r.open) || r.open[pl-1].id != pid {
		return false
	}
	switch {
	case q.kind == xpath.Attribute && q.axis == xpath.Child:
		return pl == d
	case q.kind == xpath.Attribute:
		return pl <= d
	case q.axis == xpath.Child:
		return pl == d-1
	default:
		return pl < d
	}
}

// extend clones m with q bound to (id, level), explicitly materializing one
// more partial pattern match.
func (r *Run) extend(m *match, q *qnode, id int32, level int) {
	nm := &match{
		binds:      append([]int32(nil), m.binds...),
		levels:     append([]int32(nil), m.levels...),
		bound:      m.bound + 1,
		pendingCmp: m.pendingCmp + len(q.cmps),
	}
	nm.binds[q.idx] = id
	nm.levels[q.idx] = int32(level)
	r.ms = append(r.ms, nm)
	r.stats.MatchesCreated++
	if len(r.ms) > r.stats.PeakMatches {
		r.stats.PeakMatches = len(r.ms)
	}
	if r.opts.MaxMatches > 0 && len(r.ms) > r.opts.MaxMatches {
		r.fail(ErrMatchLimit)
	}
	// Every live match whose output node is bound references the
	// candidate — including clones that inherit the binding.
	if out := nm.binds[r.eng.out]; out >= 0 {
		if c := r.cands[out]; c != nil {
			c.refs++
		}
	}
	r.maybeComplete(nm)
}

// maybeComplete confirms the candidate of a fully-bound match with no
// pending comparisons — enumeration's way of discovering a solution.
func (r *Run) maybeComplete(m *match) {
	if m.dead || m.bound != len(r.eng.nodes) || m.pendingCmp != 0 {
		return
	}
	if c := r.cands[m.binds[r.eng.out]]; c != nil && !c.confirmed {
		c.confirmed = true
		r.emitIfReady(c)
	}
	// The match has served its purpose.
	r.killMatch(m)
}

func (r *Run) killMatch(m *match) {
	if m.dead {
		return
	}
	m.dead = true
	r.stats.MatchesKilled++
	if out := m.binds[r.eng.out]; out >= 0 {
		if c := r.cands[out]; c != nil {
			c.refs--
			r.maybeDiscard(c)
		}
	}
}

func (r *Run) maybeDiscard(c *cand) {
	if c.confirmed || !c.closed || c.refs > 0 {
		return
	}
	delete(r.cands, c.id)
}

func (r *Run) emitIfReady(c *cand) {
	if !c.confirmed || c.emitted {
		return
	}
	if c.frag != nil && !c.closed {
		return // fragment still recording
	}
	c.emitted = true
	r.stats.Solutions++
	delete(r.cands, c.id)
	if r.opts.Emit != nil {
		if err := r.opts.Emit(Result{Seq: c.seq, Value: c.value}); err != nil {
			r.fail(err)
		}
	}
}

func (r *Run) startElement(ev *sax.Event) {
	id := r.nextID
	r.nextID++
	oe := openElem{id: id}
	if r.eng.needsText {
		oe.text = &strings.Builder{}
	}
	if len(ev.Attrs) > 0 {
		r.nextID += int32(len(ev.Attrs)) // reserve ids: attr i = id+1+i
	}
	r.open = append(r.open, oe)
	d := ev.Depth

	// Element bindings: for each element query node, extend every
	// compatible match. New matches become visible to later query nodes
	// (attribute children need that) but not to the same node (only the
	// pre-extension prefix is scanned).
	for _, q := range r.eng.nodes {
		if q.kind != xpath.Element || !q.matchesElem(ev) {
			continue
		}
		if q.idx == r.eng.out {
			r.ensureFragCand(id, d)
		}
		n := len(r.ms)
		for i := 0; i < n; i++ {
			m := r.ms[i]
			if m.dead || m.binds[q.idx] >= 0 || !r.compat(m, q, d) {
				continue
			}
			r.extend(m, q, id, d)
		}
	}
	// Attribute bindings.
	for ai := range ev.Attrs {
		a := &ev.Attrs[ai]
		attrID := id + 1 + int32(ai)
		for _, q := range r.eng.nodes {
			if q.kind != xpath.Attribute || !q.matchesAttr(a) {
				continue
			}
			if q.cmp != nil && !q.cmp.Eval(a.Value) {
				continue
			}
			if q.idx == r.eng.out {
				r.ensureValueCand(attrID, a.Value)
			}
			n := len(r.ms)
			for i := 0; i < n; i++ {
				m := r.ms[i]
				if m.dead || m.binds[q.idx] >= 0 || !r.compat(m, q, d) {
					continue
				}
				r.extend(m, q, attrID, d)
			}
		}
	}
	// Fragment recording (the candidate's own start tag included).
	for _, c := range r.cands {
		if c.frag != nil && !c.closed {
			c.frag.start(ev)
		}
	}
}

// ensureFragCand creates the element candidate for an output binding.
func (r *Run) ensureFragCand(id int32, level int) {
	if _, ok := r.cands[id]; ok {
		return
	}
	c := &cand{id: id, seq: r.seq, frag: &fragRec{level: level}}
	r.seq++
	r.cands[id] = c
}

func (r *Run) ensureValueCand(id int32, value string) {
	if _, ok := r.cands[id]; ok {
		return
	}
	// The value outlives the event it came from (sax.Handler lifetime rule).
	c := &cand{id: id, seq: r.seq, value: strings.Clone(value), closed: true}
	r.seq++
	r.cands[id] = c
}

func (r *Run) text(ev *sax.Event) {
	if r.eng.needsText {
		for i := range r.open {
			r.open[i].text.WriteString(ev.Text)
		}
	}
	d := ev.Depth
	textID := r.nextID
	r.nextID++
	for _, q := range r.eng.nodes {
		if q.kind != xpath.Text {
			continue
		}
		if q.cmp != nil && !q.cmp.Eval(ev.Text) {
			continue
		}
		if q.idx == r.eng.out {
			r.ensureValueCand(textID, ev.Text)
		}
		n := len(r.ms)
		for i := 0; i < n; i++ {
			m := r.ms[i]
			if m.dead || m.binds[q.idx] >= 0 || !r.compat(m, q, d) {
				continue
			}
			r.extend(m, q, textID, d)
		}
	}
	for _, c := range r.cands {
		if c.frag != nil && !c.closed {
			c.frag.text(ev)
		}
	}
}

func (r *Run) endElement(ev *sax.Event) {
	oe := r.open[len(r.open)-1]
	// Close fragments first so confirmed candidates can emit.
	for _, c := range r.cands {
		if c.frag != nil && !c.closed {
			c.frag.end(ev)
			if c.id == oe.id {
				c.closed = true
				c.value = string(c.frag.buf)
				r.emitIfReady(c)
			}
		}
	}
	// Enumerate matches: evaluate comparisons bound to this element and
	// kill matches that can no longer complete (a bound node with an
	// unbound child loses its subtree forever when the element closes).
	// This per-event sweep over explicitly stored matches is the
	// exponential behaviour the paper's motivation describes.
	sv := ""
	if oe.text != nil {
		sv = oe.text.String()
	}
	for _, m := range r.ms {
		if m.dead {
			continue
		}
		for _, q := range r.eng.nodes {
			if m.binds[q.idx] != oe.id || q.kind != xpath.Element {
				continue
			}
			if len(q.cmps) > 0 {
				ok := true
				for _, cmp := range q.cmps {
					if !cmp.Eval(sv) {
						ok = false
						break
					}
				}
				if !ok {
					r.killMatch(m)
					break
				}
				m.pendingCmp -= len(q.cmps)
			}
			incomplete := false
			for _, ci := range q.children {
				if m.binds[ci] < 0 {
					incomplete = true
					break
				}
			}
			if incomplete {
				r.killMatch(m)
				break
			}
			r.maybeComplete(m)
			if m.dead {
				break
			}
		}
	}
	// Compact the dead.
	live := r.ms[:0]
	for _, m := range r.ms {
		if !m.dead {
			live = append(live, m)
		}
	}
	r.ms = live
	// Candidate cleanup: the element is closed; a candidate with no
	// remaining references can never be confirmed.
	if c, ok := r.cands[oe.id]; ok {
		c.closed = true
		r.maybeDiscard(c)
	}
	r.open = r.open[:len(r.open)-1]
}

// Collect runs the engine over a document and returns all solutions sorted
// into document order.
func Collect(e *Engine, d sax.Driver, opts Options) ([]Result, Stats, error) {
	var results []Result
	userEmit := opts.Emit
	opts.Emit = func(res Result) error {
		results = append(results, res)
		if userEmit != nil {
			return userEmit(res)
		}
		return nil
	}
	run := e.Start(opts)
	if err := d.Run(run); err != nil {
		return nil, run.Stats(), err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	return results, run.Stats(), nil
}
