// Package twigm implements the heart of ViteX (ICDE 2005): the TwigM
// builder (§3.1) and the TwigM machine (§3.2), a streaming XPath processor
// for the fragment XP{/,//,*,[]} with polynomial time and space complexity.
//
// The machine keeps one stack per query node. A stack entry corresponds to
// one open XML element that path-matches the query node, and compactly
// encodes every pattern match that element participates in: instead of
// enumerating the (worst-case exponential) matches, each entry carries a
// bitset recording which query children have been matched, and a list of
// candidate solutions whose fate depends on this entry's predicates. Flags
// propagate to all axis-compatible parent entries when an entry's predicate
// expression becomes satisfied; candidate solutions travel up the spine the
// same way and are emitted exactly once when they reach a satisfied root
// entry, or discarded when their last reference dies. This is the paper's
// O(|D|·|Q|·(|Q|+B)) lazy evaluation.
package twigm

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/sax"
	"repro/internal/xpath"
)

// compileCount counts every machine built by this process. Incremental
// query-set updates are specified as "compile only the changed query"; tests
// assert that property by differencing this counter around a mutation.
var compileCount atomic.Int64

// CompileCount returns the number of TwigM machines compiled by this process
// so far.
func CompileCount() int64 { return compileCount.Load() }

// maxChildren bounds the number of machine children per query node (flag
// bits live in one uint64 per stack entry).
const maxChildren = 64

// Program is a compiled TwigM machine: the immutable result of the TwigM
// builder. A Program can drive any number of concurrent Runs.
//
// A standing set keeps one Program per query alive, so its layout is what
// the garbage collector marks: a few flat arrays, not a graph. Machine nodes
// and conditions are stored by value and refer to each other, to their lists
// and to their strings by index, so neither holds a pointer; every list,
// the shared prefix profile included, lives in one int32 pool; names are
// symbol IDs. The parse tree the program was compiled from is not kept.
type Program struct {
	// syms is the symbol table the program's names were interned into.
	// Events produced against the same table dispatch on their IDs through
	// the dense tables below, sized by the program's own names (a search
	// among them on the hot path), not by the shared table; an event without
	// IDs has its names resolved through syms into the same tables.
	syms *sax.Symbols
	// text holds the strings the program keeps, as spans: the prefixes of
	// prefixed name tests, comparison literals and the profile's names. It is
	// the query's source, which spells them all (a query built by hand gets
	// what its source lacks appended).
	text  string
	nodes []node  // ids dense, topological (parent before child); nodes[0] is the root
	conds []cond  // the operands of the nodes' 'and' and 'or' conditions
	ints  []int32 // every list of the program is a span of this pool
	// literal is a value-keyed residual's literal (ValueKey).
	literal string

	elems     dispatchTable // element nodes by local name ID (no wildcards)
	attrs     dispatchTable // attribute nodes by local name ID
	wildElems span          // element nodes with name "*"
	textNodes span          // text() nodes
	// valueNodes are element nodes that must accumulate their string-value
	// (they carry a chain comparison or a self-comparison predicate).
	valueNodes span
	// valueRoots are the symbol IDs of the element names whose content the
	// machine reads (ValueRootIDs); rootText reports a text() node with no
	// parent (HasRootText).
	valueRoots span
	rootText   bool

	// anchored marks a residual machine built by CompileShared: its root
	// node's axis checks consult a shared prefix AnchorStack (bound per
	// stream via Run.BindAnchor) instead of the document node; profile is
	// the factored-out prefix (see shared.go), profileInts per step.
	anchored bool
	profile  span
	// valueKeyed marks a residual of one [. = 'literal'] element step, the
	// shape value groups evaluate (see valuegroup.go).
	valueKeyed bool
}

// profileInts is the number of ints a profile step takes: its axis, the
// symbol ID of its local name and the span of its name in the text.
const profileInts = 4

// span is the run [off, off+n) of a program's ints or of its text.
type span struct{ off, n int32 }

// list returns the ints s spans. The slice is the program's own; it cannot
// be appended to.
//
//vitex:hotpath
func (p *Program) list(s span) []int32 {
	end := s.off + s.n
	return p.ints[s.off:end:end]
}

// str returns the text s spans.
func (p *Program) str(s span) string { return p.text[s.off : s.off+s.n] }

// node is one machine node: a query node plus its compiled condition.
type node struct {
	kind     xpath.Kind
	axis     xpath.Axis
	isOutput bool
	spine    bool
	// needsText: entries of this node accumulate their string-value.
	needsText bool
	// readsText: while an entry of this node is live, text matters to the
	// machine — the node needs its string value, or has a text() child.
	readsText bool
	// prunable: the condition can be decided false at push time from
	// child-axis attribute leaves alone.
	prunable bool
	id       int32
	parent   int32 // -1 for the root
	childIdx int32 // flag bit position in parent entries
	// nameID is the symbol ID of the name test's LOCAL name (elements and
	// attributes; 0 for "*" and text()): matching is on the local name, with
	// prefix, a span of the text, as an extra requirement when non-empty.
	nameID   int32
	prefix   span
	children span // node ids in the ints, in flag bit order
	// cond is an element's condition over its entries. An attribute's or a
	// text() node's is its inline value test, a condSelf (a condAll of no bits for none)
	// evaluated the moment the node's value is seen: attribute values and
	// text runs are final immediately.
	cond cond
}

// condOp enumerates condition-tree operators.
type condOp uint8

const (
	condAll  condOp = iota // every flag bit of mask is set: true for no bits
	condAny                // some flag bit of mask is set
	condAnd                // every operand holds
	condOr                 // some operand holds
	condSelf               // comparison on this entry's own string-value (final at pop)
)

// cond is a compiled boolean condition over a stack entry's state. An entry
// is satisfied when its node's cond evaluates true; condSelf leaves are
// unknown (treated false) until the entry pops and its string-value is
// complete.
type cond struct {
	op condOp
	// A condSelf's comparison (xpath.Comparison), its literal a span of the
	// text.
	cmpOp   xpath.Op
	isNum   bool
	kids    span // condAnd, condOr: operand indexes in conds, in the ints
	literal span
	number  float64
	// condAll, condAny: the flag bits (child subqueries matched) tested, and
	// those among them fully known by the end of the entry's start-element
	// event: child-axis attribute children (attributes cannot appear later).
	mask, final uint64
}

// CompileError reports a query that parses but cannot be compiled to a
// machine (out-of-range widths).
type CompileError struct{ Msg string }

func (e *CompileError) Error() string { return "twigm: " + e.Msg }

// Compile builds a TwigM machine from a parsed query with a private symbol
// table. Build time is linear in the query size (paper §2, claim 2;
// benchmarked by E7).
func Compile(q *xpath.Query) (*Program, error) {
	return CompileWith(q, sax.NewSymbols())
}

// CompileWith builds a TwigM machine whose names are interned into the
// shared table syms, so several programs can dispatch events from one
// symbol-aware scanner. Pass the same table to the scanner (or to
// engine-level routing) that feeds the machine; a nil syms gets a private
// table.
func CompileWith(q *xpath.Query, syms *sax.Symbols) (*Program, error) {
	if syms == nil {
		syms = sax.NewSymbols()
	}
	return compileFrom(q, q.Root, syms, nil)
}

// compileFrom builds the machine of q's nodes from start on, behind the
// shared prefix profile when it is not empty.
func compileFrom(q *xpath.Query, start *xpath.Node, syms *sax.Symbols, profile []TrieStep) (*Program, error) {
	compileCount.Add(1)
	b := &builder{
		p: &Program{
			syms: syms, text: q.Source, anchored: len(profile) > 0,
			nodes: make([]node, 0, start.Size()),
		},
		output: q.Output,
	}
	for _, st := range profile {
		name := b.span(st.Name)
		b.p.ints = append(b.p.ints, int32(st.Axis), st.NameID, name.off, name.n)
	}
	b.p.profile = span{0, int32(len(b.p.ints))}
	if _, err := b.build(start, -1); err != nil {
		return nil, err
	}
	b.finish()
	return b.p, nil
}

// builder assembles a Program. A condition's operands go to the program's
// ints as soon as they are built; node children and the dispatch lists are
// gathered while the query tree is walked and laid out once it is over
// (finish), which copies the ints to their final size.
type builder struct {
	p      *Program
	output *xpath.Node
	kids   [][]int32 // kids[id]: node id's children, in flag bit order
	// The node lists of the same names: elems and attrs the named element and
	// attribute nodes, which finish sorts by name.
	elems, attrs, wild, text, value []int32
}

// build creates the machine node for qn (and recursively its children) and
// files it for dispatch.
func (b *builder) build(qn *xpath.Node, parent int32) (int32, error) {
	p := b.p
	id := int32(len(p.nodes))
	prefix, local := qn.Prefix, qn.Local
	if qn.Kind != xpath.Text && local == "" && qn.Name != "" {
		// Queries built without the parser (tests): split here.
		prefix, local = sax.SplitName(qn.Name)
	}
	m := node{
		id: id, parent: parent, prefix: b.span(prefix),
		kind: qn.Kind, axis: qn.Axis, spine: qn.Spine, isOutput: qn == b.output,
	}
	// Dispatch is keyed by LOCAL name: name tests match the local part, and
	// prefixed tests re-check the prefix at push time.
	switch {
	case qn.Kind == xpath.Text:
		b.text = append(b.text, id)
	case qn.Kind == xpath.Element && qn.Name == "*":
		b.wild = append(b.wild, id)
	case qn.Kind == xpath.Element:
		m.nameID = p.syms.Intern(local)
		b.elems = append(b.elems, id)
	default:
		m.nameID = p.syms.Intern(local)
		b.attrs = append(b.attrs, id)
	}
	p.nodes = append(p.nodes, m)
	b.kids = append(b.kids, nil)

	// Children: predicate-leaf heads first, then the chain continuation.
	// Each child occupies one flag bit in this node's entries.
	addChild := func(cqn *xpath.Node) (int32, error) {
		c, err := b.build(cqn, id)
		if err != nil {
			return 0, err
		}
		p.nodes[c].childIdx = int32(len(b.kids[id]))
		b.kids[id] = append(b.kids[id], c)
		if len(b.kids[id]) > maxChildren {
			return 0, &CompileError{Msg: fmt.Sprintf(
				"query node %q has more than %d predicate branches", qn.Name, maxChildren)}
		}
		return c, nil
	}

	var conds []cond
	if qn.Pred != nil {
		pc, err := b.buildPred(qn.Pred, addChild)
		if err != nil {
			return 0, err
		}
		conds = append(conds, pc)
	}
	if qn.Next != nil {
		c, err := addChild(qn.Next)
		if err != nil {
			return 0, err
		}
		conds = append(conds, b.flagLeaf(c))
	}
	if qn.Cmp != nil {
		// A trailing comparison on the path ending at this node: an
		// element's is a condition over its string value, an attribute's or
		// a text() node's its inline test.
		conds = append(conds, b.selfCond(qn.Cmp))
	}
	c := b.andConds(conds)
	n := &p.nodes[id]
	n.cond, n.prunable = c, p.some(&c, func(k *cond) bool { return k.final != 0 })
	if qn.Kind == xpath.Element && p.some(&c, func(k *cond) bool { return k.op == condSelf }) {
		n.needsText = true
		b.value = append(b.value, id)
	}
	return id, nil
}

// buildPred compiles a predicate expression, materializing machine nodes for
// its path leaves via addChild.
func (b *builder) buildPred(pe *xpath.PredExpr, addChild func(*xpath.Node) (int32, error)) (cond, error) {
	switch pe.Op {
	case xpath.PredTrue:
		return cond{op: condAll}, nil
	case xpath.PredSelf:
		return b.selfCond(pe.Self), nil
	case xpath.PredLeaf:
		c, err := addChild(pe.Leaf)
		if err != nil {
			return cond{}, err
		}
		return b.flagLeaf(c), nil
	case xpath.PredAnd, xpath.PredOr:
		op := condAnd
		if pe.Op == xpath.PredOr {
			op = condOr
		}
		kids := make([]cond, 0, len(pe.Kids))
		for _, k := range pe.Kids {
			kc, err := b.buildPred(k, addChild)
			if err != nil {
				return cond{}, err
			}
			kids = append(kids, kc)
		}
		return b.operation(op, kids), nil
	default:
		return cond{}, &CompileError{Msg: "unknown predicate operator"}
	}
}

// operation returns the 'and' or 'or' of kids: one mask test for a
// conjunction of mask tests or a disjunction of flags, else a condition over
// the kids, which it files among the program's operands.
func (b *builder) operation(op condOp, kids []cond) cond {
	merged := cond{op: condAll}
	if op == condOr {
		merged.op = condAny
	}
	for _, k := range kids {
		if k.op != condAll || op == condOr && bits.OnesCount64(k.mask) != 1 {
			merged.op = op
			break
		}
		merged.mask, merged.final = merged.mask|k.mask, merged.final|k.final
	}
	if merged.op != op {
		return merged
	}
	p := b.p
	c := cond{op: op, kids: span{int32(len(p.ints)), int32(len(kids))}}
	for _, k := range kids {
		p.ints = append(p.ints, int32(len(p.conds)))
		p.conds = append(p.conds, k)
	}
	return c
}

// selfCond compiles the condSelf leaf of comparison c.
func (b *builder) selfCond(c *xpath.Comparison) cond {
	return cond{op: condSelf, cmpOp: c.Op, isNum: c.IsNum, number: c.Number, literal: b.span(c.Literal)}
}

// flagLeaf compiles the test of machine child c's flag bit.
func (b *builder) flagLeaf(c int32) cond {
	m := &b.p.nodes[c]
	leaf := cond{op: condAll, mask: 1 << m.childIdx}
	if m.kind == xpath.Attribute && m.axis == xpath.Child {
		leaf.final = leaf.mask
	}
	return leaf
}

func (b *builder) andConds(conds []cond) cond {
	switch len(conds) {
	case 0:
		return cond{op: condAll}
	case 1:
		return conds[0]
	default:
		return b.operation(condAnd, conds)
	}
}

// some reports whether c or one of its operands, at any depth, satisfies f.
func (p *Program) some(c *cond, f func(*cond) bool) bool {
	return f(c) || slices.ContainsFunc(p.list(c.kids), func(k int32) bool { return p.some(&p.conds[k], f) })
}

// span returns a span of the program's text that spells s. The parser's
// strings are all substrings of the source; one that is not (a query built
// by hand) is appended.
func (b *builder) span(s string) span {
	i := strings.Index(b.p.text, s)
	if i < 0 {
		i = len(b.p.text)
		b.p.text += s
	}
	return span{int32(i), int32(len(s))}
}

// finish derives what the nodes imply for text and value roots, and lays the
// gathered lists out in the program's ints, which it gives their final size.
func (b *builder) finish() {
	p := b.p
	var roots []int32
	addRoot := func(id int32) {
		// 0, a wildcard's, is no name.
		if id > 0 && !slices.Contains(roots, id) {
			roots = append(roots, id)
		}
	}
	for i := range p.nodes {
		m := &p.nodes[i]
		m.readsText = m.readsText || m.needsText
		switch {
		case m.kind == xpath.Element && (m.isOutput || m.needsText):
			addRoot(m.nameID)
		case m.kind == xpath.Text && m.parent >= 0:
			p.nodes[m.parent].readsText = true
			addRoot(p.nodes[m.parent].nameID)
		case m.kind == xpath.Text && p.anchored:
			p.rootText = true
			addRoot(p.ints[p.profile.n-profileInts+1])
		case m.kind == xpath.Text:
			p.rootText = true
		}
	}
	for i := range p.nodes {
		p.nodes[i].children = b.put(b.kids[i])
	}
	elems, attrs := b.dispatch(b.elems), b.dispatch(b.attrs)
	p.wildElems, p.textNodes, p.valueNodes = b.put(b.wild), b.put(b.text), b.put(b.value)
	p.valueRoots = b.put(roots)
	p.ints = slices.Clone(p.ints)
	p.elems = dispatchTable{p.list(elems[0]), p.list(elems[1])}
	p.attrs = dispatchTable{p.list(attrs[0]), p.list(attrs[1])}
}

// put appends list to the program's ints and returns its span.
func (b *builder) put(list []int32) span {
	s := span{int32(len(b.p.ints)), int32(len(list))}
	b.p.ints = append(b.p.ints, list...)
	return s
}

// dispatchTable files a program's machine nodes by the symbol ID of their
// local name: one entry per name the program mentions, whatever the size of
// the symbol table it shares, so building N programs over one table costs
// O(sum of their sizes), not O(N x symbols). Both lists are runs of the
// program's ints, and the nodes named ids[i] are ints[firsts[i]:firsts[i+1]].
type dispatchTable struct {
	ids    []int32 // the names' IDs, ascending
	firsts []int32 // one more than ids
}

// dispatch lays out the table of nodes, which are in node order: their
// names, where each name's nodes start, and the nodes sorted by name. It
// returns the spans of the first two.
func (b *builder) dispatch(nodes []int32) [2]span {
	p := b.p
	slices.SortStableFunc(nodes, func(x, y int32) int { return int(p.nodes[x].nameID - p.nodes[y].nameID) })
	var ids, firsts []int32
	for i, n := range nodes {
		if id := p.nodes[n].nameID; i == 0 || id != ids[len(ids)-1] {
			ids, firsts = append(ids, id), append(firsts, int32(i))
		}
	}
	at := int32(len(p.ints) + 2*len(ids) + 1) // where the nodes will start
	for i := range firsts {
		firsts[i] += at
	}
	t := [2]span{b.put(ids), b.put(append(firsts, at+int32(len(nodes))))}
	b.put(nodes)
	return t
}

// lookup returns the ids of the nodes filed under symbol id (none for a name
// the program does not mention).
//
//vitex:hotpath
func (p *Program) lookup(t *dispatchTable, id int32) []int32 {
	lo, hi := 0, len(t.ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(t.ids) || t.ids[lo] != id {
		return nil
	}
	return p.ints[t.firsts[lo]:t.firsts[lo+1]:t.firsts[lo+1]]
}

// Symbols returns the table the program's names are interned in.
func (p *Program) Symbols() *sax.Symbols { return p.syms }

// MustCompile compiles a query string, panicking on error (tests/examples).
func MustCompile(query string) *Program {
	q, err := xpath.Parse(query)
	if err != nil {
		panic(err)
	}
	p, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return p
}

// root returns the program's root node.
func (p *Program) root() *node { return &p.nodes[0] }

// eval evaluates condition c against an entry's state. Unknown leaves
// (condSelf before finalization) count as false; because the expression is
// monotone (no negation in the fragment) a true result is final. The entry
// is passed directly (instead of a string-value closure) to keep the hot
// path allocation-free.
//
//vitex:hotpath
func (p *Program) eval(c *cond, flags uint64, e *entry, final bool) bool {
	switch c.op {
	case condAll:
		return flags&c.mask == c.mask
	case condAny:
		return flags&c.mask != 0
	case condSelf:
		if !final {
			return false
		}
		return p.compare(c, e.textValue())
	case condAnd:
		for _, k := range p.list(c.kids) {
			if !p.eval(&p.conds[k], flags, e, final) {
				return false
			}
		}
		return true
	default: // condOr
		for _, k := range p.list(c.kids) {
			if p.eval(&p.conds[k], flags, e, final) {
				return true
			}
		}
		return false
	}
}

// compare evaluates condSelf c's comparison on value.
//
//vitex:hotpath
func (p *Program) compare(c *cond, value string) bool {
	cmp := xpath.Comparison{Op: c.cmpOp, Literal: p.str(c.literal), Number: c.number, IsNum: c.isNum}
	return cmp.Eval(value)
}

// deadAtPush reports whether condition c can already be ruled out at push
// time: it is false even if every leaf that could still become true does.
// Only child-axis attribute leaves are final at push.
func (p *Program) deadAtPush(c *cond, flags uint64) bool {
	switch c.op {
	case condSelf:
		return false
	case condAll:
		return flags&c.final != c.final
	case condAny:
		return c.mask == c.final && flags&c.final == 0
	case condAnd:
		return slices.ContainsFunc(p.list(c.kids), func(k int32) bool { return p.deadAtPush(&p.conds[k], flags) })
	default: // condOr
		return !slices.ContainsFunc(p.list(c.kids), func(k int32) bool { return !p.deadAtPush(&p.conds[k], flags) })
	}
}

// ---- routing metadata (consumed by internal/engine) ----

// ElemNameIDs returns the symbol IDs of the element names this machine can
// push on — the static element-name subscriptions of routed dispatch. The
// slice is the program's own; callers must not modify it.
func (p *Program) ElemNameIDs() []int32 { return p.elems.ids }

// AttrNameIDs returns the symbol IDs of the attribute names this machine
// matches: a start-element event carrying one of them is relevant even when
// the element name is not. The slice is the program's own; callers must not
// modify it.
func (p *Program) AttrNameIDs() []int32 { return p.attrs.ids }

// ValueRootIDs returns the symbol IDs of the element names whose content the
// machine reads, not only their tags: its output element, whose fragment it
// records; an element whose string value it compares; the parent of a text()
// step — for a residual text() behind a shared prefix, the prefix's last step.
// Every event inside such an element may matter to the machine; outside all
// of them, only the tags it names and its attributes do. A '*' step names no
// root: a machine with one is HasWildcardElem. The slice is the program's
// own; callers must not modify it.
func (p *Program) ValueRootIDs() []int32 { return p.list(p.valueRoots) }

// HasWildcardElem reports whether the machine has a '*' element node and
// therefore must see every start-element event.
func (p *Program) HasWildcardElem() bool { return p.wildElems.n > 0 }

// HasRootText reports whether a text() node sits at the program's root
// (//text(), or a residual text() behind a shared prefix). Such a machine
// wants text events from the first event of a document on — WantsText is true
// of a freshly reset run — so routers treat it as a static text subscription.
func (p *Program) HasRootText() bool { return p.rootText }

// NumNodes returns the number of machine nodes (equals the query size; the
// builder is linear, paper claim 2).
func (p *Program) NumNodes() int { return len(p.nodes) }

// Describe renders the machine tree in the style of figure 3 of the paper:
// one line per machine node, child-axis edges drawn with '-', descendant
// edges with '='; the output node is marked with '*'. Prefix-shared
// (anchored) machines lead with the factored-out shared prefix.
func (p *Program) Describe() string {
	var b strings.Builder
	if p.anchored {
		b.WriteString("(shared prefix ")
		b.WriteString(ProfileString(p.Profile()))
		b.WriteString(")\n")
	}
	p.describe(&b, p.root(), 0)
	return b.String()
}

func (p *Program) describe(b *strings.Builder, m *node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	edge := "-"
	if m.axis == xpath.Descendant {
		edge = "="
	}
	b.WriteString(edge)
	b.WriteString(p.label(m))
	if m.isOutput {
		b.WriteString(" *")
	}
	b.WriteString("\n")
	for _, c := range p.list(m.children) {
		p.describe(b, &p.nodes[c], depth+1)
	}
}

// name returns m's name test as written: "*", a local name, or "p:a".
func (p *Program) name(m *node) string {
	switch {
	case m.kind == xpath.Element && m.nameID == sax.SymNone:
		return "*"
	case m.prefix.n > 0:
		return p.str(m.prefix) + ":" + p.syms.Name(m.nameID)
	}
	return p.syms.Name(m.nameID)
}

// label renders m as a step: "@a" for an attribute, "text()", or the name.
func (p *Program) label(m *node) string {
	switch m.kind {
	case xpath.Attribute:
		return "@" + p.name(m)
	case xpath.Text:
		return "text()"
	default:
		return p.name(m)
	}
}
