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
type Program struct {
	query *xpath.Query
	root  *node
	nodes []*node // all nodes, ids dense, topological (parent before child)

	// syms is the symbol table the program's names were interned into.
	// Events produced against the same table dispatch through the dense
	// tables below, sized by the program's own names (a search among them
	// on the hot path), not by the shared table; events without IDs fall
	// back to the name maps.
	syms  *sax.Symbols
	elems dispatchTable // element nodes by NameID (no wildcards)
	attrs dispatchTable // attribute nodes by NameID

	// Event-dispatch indexes (string fallback for producers that do not
	// intern, e.g. hand-built events).
	elemIndex map[string][]*node // element nodes by name (no wildcards)
	wildElems []*node            // element nodes with name "*"
	attrIndex map[string][]*node // attribute nodes by name
	textNodes []*node            // text() nodes
	// valueNodes are element nodes that must accumulate their string-value
	// (they carry a chain comparison or a self-comparison predicate).
	valueNodes []*node
	// valueRoots are the symbol IDs of the element names whose content the
	// machine reads (ValueRootIDs); rootText reports a text() node with no
	// parent (HasRootText).
	valueRoots []int32
	rootText   bool

	// anchored marks a residual machine built by CompileShared: its root
	// node's axis checks consult a shared prefix AnchorStack (bound per
	// stream via Run.BindAnchor) instead of the document node; profile is
	// the factored-out prefix (see shared.go).
	anchored bool
	profile  []TrieStep
	// valueKeyed marks a residual of one [. = 'literal'] element step, the
	// shape value groups evaluate (see valuegroup.go); literal is its literal.
	valueKeyed bool
	literal    string
}

// node is one machine node: a query node plus its compiled condition.
type node struct {
	id   int
	kind xpath.Kind
	name string // name test as written ("p:a" for prefixed tests)
	// prefix/local split of the name test: matching is on the local name,
	// with the prefix as an extra requirement when non-empty.
	prefix   string
	local    string
	nameID   int32 // symbol ID of the LOCAL name (elements/attributes; 0 for "*")
	axis     xpath.Axis
	parent   *node
	childIdx int // flag bit position in parent entries
	children []*node
	cond     *cond
	// cmp is the inline value test of attribute and text() nodes,
	// evaluated the moment the node's value is seen (attribute values
	// and text runs are final immediately).
	cmp      *xpath.Comparison
	isOutput bool
	spine    bool
	// needsText: entries of this node accumulate their string-value.
	needsText bool
	// readsText: while an entry of this node is live, text matters to the
	// machine — the node needs its string value, or has a text() child.
	readsText bool
	// hasSelfClosePrune: the condition can be decided false at push time
	// from child-axis attribute leaves alone.
	prunable bool
}

// condOp enumerates condition-tree operators.
type condOp uint8

const (
	condTrue condOp = iota
	condAnd
	condOr
	condFlag // child subquery matched: flag bit flagIdx
	condSelf // comparison on this entry's own string-value (final at pop)
)

// cond is a compiled boolean condition over a stack entry's state. An entry
// is satisfied when its node's cond evaluates true; condSelf leaves are
// unknown (treated false) until the entry pops and its string-value is
// complete.
type cond struct {
	op      condOp
	kids    []*cond
	flagIdx int
	// finalAtPush marks condFlag leaves whose truth is fully known by the
	// end of the entry's start-element event: child-axis attribute
	// children (attributes cannot appear later).
	finalAtPush bool
	cmp         *xpath.Comparison
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
	compileCount.Add(1)
	if syms == nil {
		syms = sax.NewSymbols()
	}
	p := &Program{
		query:     q,
		syms:      syms,
		elemIndex: make(map[string][]*node),
		attrIndex: make(map[string][]*node),
	}
	root, err := p.build(q.Root, nil)
	if err != nil {
		return nil, err
	}
	p.root = root
	p.freezeDispatch()
	return p, nil
}

// freezeDispatch builds the ID-keyed dispatch views from the name maps, and
// the value roots.
func (p *Program) freezeDispatch() {
	p.elems = newDispatchTable(p.elemIndex)
	p.attrs = newDispatchTable(p.attrIndex)
	for _, m := range p.nodes {
		m.readsText = m.readsText || m.needsText
		switch {
		case m.kind == xpath.Element && (m.isOutput || m.needsText):
			p.addValueRoot(m.nameID)
		case m.kind == xpath.Text && m.parent != nil:
			m.parent.readsText = true
			p.addValueRoot(m.parent.nameID)
		case m.kind == xpath.Text && p.anchored:
			p.rootText = true
			p.addValueRoot(p.profile[len(p.profile)-1].NameID)
		case m.kind == xpath.Text:
			p.rootText = true
		}
	}
}

// addValueRoot files id among the value roots once; 0, a wildcard's, is no
// name.
func (p *Program) addValueRoot(id int32) {
	if id > 0 && !slices.Contains(p.valueRoots, id) {
		p.valueRoots = append(p.valueRoots, id)
	}
}

// dispatchTable files a program's machine nodes by the symbol ID of their
// local name: one entry per name the program mentions, whatever the size of
// the symbol table it shares, so building N programs over one table costs
// O(sum of their sizes), not O(N x symbols).
type dispatchTable struct {
	ids   []int32   // ascending
	nodes [][]*node // nodes[i]: the nodes named ids[i]
}

func newDispatchTable(index map[string][]*node) dispatchTable {
	var t dispatchTable
	for _, nodes := range index {
		t.ids = append(t.ids, nodes[0].nameID)
	}
	slices.Sort(t.ids)
	t.nodes = make([][]*node, len(t.ids))
	for _, nodes := range index {
		i, _ := slices.BinarySearch(t.ids, nodes[0].nameID)
		t.nodes[i] = nodes
	}
	return t
}

// lookup returns the nodes filed under symbol id (nil for a name the program
// does not mention).
//
//vitex:hotpath
func (t *dispatchTable) lookup(id int32) []*node {
	lo, hi := 0, len(t.ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(t.ids) && t.ids[lo] == id {
		return t.nodes[lo]
	}
	return nil
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

// build creates the machine node for qn (and recursively its children) and
// registers it in the dispatch indexes.
func (p *Program) build(qn *xpath.Node, parent *node) (*node, error) {
	m := &node{
		id:       len(p.nodes),
		kind:     qn.Kind,
		name:     qn.Name,
		prefix:   qn.Prefix,
		local:    qn.Local,
		axis:     qn.Axis,
		parent:   parent,
		spine:    qn.Spine,
		isOutput: qn == p.query.Output,
	}
	if m.kind != xpath.Text && m.local == "" && m.name != "" {
		// Queries built without the parser (tests): split here.
		m.prefix, m.local = sax.SplitName(m.name)
	}
	// Dispatch indexes are keyed by LOCAL name: name tests match the local
	// part, and prefixed tests re-check the prefix at push time.
	switch qn.Kind {
	case xpath.Element:
		if qn.Name == "*" {
			p.wildElems = append(p.wildElems, m)
		} else {
			m.nameID = p.syms.Intern(m.local)
			p.elemIndex[m.local] = append(p.elemIndex[m.local], m)
		}
	case xpath.Attribute:
		m.nameID = p.syms.Intern(m.local)
		p.attrIndex[m.local] = append(p.attrIndex[m.local], m)
	case xpath.Text:
		p.textNodes = append(p.textNodes, m)
	}
	p.nodes = append(p.nodes, m)

	// Children: predicate-leaf heads first, then the chain continuation.
	// Each child occupies one flag bit in this node's entries.
	addChild := func(cqn *xpath.Node) (*node, error) {
		cm, err := p.build(cqn, m)
		if err != nil {
			return nil, err
		}
		cm.childIdx = len(m.children)
		m.children = append(m.children, cm)
		if len(m.children) > maxChildren {
			return nil, &CompileError{Msg: fmt.Sprintf(
				"query node %q has more than %d predicate branches", qn.Name, maxChildren)}
		}
		return cm, nil
	}

	var conds []*cond
	if qn.Pred != nil {
		pc, err := p.buildPred(qn.Pred, addChild)
		if err != nil {
			return nil, err
		}
		conds = append(conds, pc)
	}
	if qn.Next != nil {
		cm, err := addChild(qn.Next)
		if err != nil {
			return nil, err
		}
		conds = append(conds, flagLeaf(cm))
	}
	if qn.Cmp != nil {
		// A trailing comparison on the path ending at this node.
		switch qn.Kind {
		case xpath.Element:
			conds = append(conds, &cond{op: condSelf, cmp: qn.Cmp})
			m.needsText = true
		default:
			// Attribute and text() comparisons are evaluated inline
			// at the event; they gate the node's satisfaction there,
			// not through the cond tree.
			m.cmp = qn.Cmp
		}
	}
	m.cond = andConds(conds)
	if m.kind == xpath.Element && hasSelf(m.cond) {
		m.needsText = true
	}
	if m.needsText {
		p.valueNodes = append(p.valueNodes, m)
	}
	m.prunable = hasFinalLeaf(m.cond)
	return m, nil
}

// buildPred compiles a predicate expression, materializing machine nodes for
// its path leaves via addChild.
func (p *Program) buildPred(pe *xpath.PredExpr, addChild func(*xpath.Node) (*node, error)) (*cond, error) {
	switch pe.Op {
	case xpath.PredTrue:
		return &cond{op: condTrue}, nil
	case xpath.PredSelf:
		return &cond{op: condSelf, cmp: pe.Self}, nil
	case xpath.PredLeaf:
		cm, err := addChild(pe.Leaf)
		if err != nil {
			return nil, err
		}
		return flagLeaf(cm), nil
	case xpath.PredAnd, xpath.PredOr:
		op := condAnd
		if pe.Op == xpath.PredOr {
			op = condOr
		}
		c := &cond{op: op}
		for _, k := range pe.Kids {
			kc, err := p.buildPred(k, addChild)
			if err != nil {
				return nil, err
			}
			c.kids = append(c.kids, kc)
		}
		return c, nil
	default:
		return nil, &CompileError{Msg: "unknown predicate operator"}
	}
}

// flagLeaf builds the condFlag leaf for machine child cm.
func flagLeaf(cm *node) *cond {
	return &cond{
		op:          condFlag,
		flagIdx:     cm.childIdx,
		finalAtPush: cm.kind == xpath.Attribute && cm.axis == xpath.Child,
	}
}

func andConds(conds []*cond) *cond {
	switch len(conds) {
	case 0:
		return &cond{op: condTrue}
	case 1:
		return conds[0]
	default:
		return &cond{op: condAnd, kids: conds}
	}
}

func hasSelf(c *cond) bool {
	if c.op == condSelf {
		return true
	}
	for _, k := range c.kids {
		if hasSelf(k) {
			return true
		}
	}
	return false
}

func hasFinalLeaf(c *cond) bool {
	if c.op == condFlag && c.finalAtPush {
		return true
	}
	for _, k := range c.kids {
		if hasFinalLeaf(k) {
			return true
		}
	}
	return false
}

// eval evaluates the condition against an entry's state. Unknown leaves
// (condSelf before finalization) count as false; because the expression is
// monotone (no negation in the fragment) a true result is final. The entry
// is passed directly (instead of a string-value closure) to keep the hot
// path allocation-free.
func (c *cond) eval(flags uint64, e *entry, final bool) bool {
	switch c.op {
	case condTrue:
		return true
	case condFlag:
		return flags&(1<<uint(c.flagIdx)) != 0
	case condSelf:
		if !final {
			return false
		}
		return c.cmp.Eval(e.textValue())
	case condAnd:
		for _, k := range c.kids {
			if !k.eval(flags, e, final) {
				return false
			}
		}
		return true
	default: // condOr
		for _, k := range c.kids {
			if k.eval(flags, e, final) {
				return true
			}
		}
		return false
	}
}

// deadAtPush reports whether the condition can already be ruled out at push
// time: evaluating optimistically (every leaf that could still become true
// counts as true) it is still false. Only child-axis attribute leaves are
// final at push.
func (c *cond) deadAtPush(flags uint64) bool {
	return !c.optimistic(flags)
}

func (c *cond) optimistic(flags uint64) bool {
	switch c.op {
	case condTrue, condSelf:
		return true
	case condFlag:
		if c.finalAtPush {
			return flags&(1<<uint(c.flagIdx)) != 0
		}
		return true
	case condAnd:
		for _, k := range c.kids {
			if !k.optimistic(flags) {
				return false
			}
		}
		return true
	default: // condOr
		for _, k := range c.kids {
			if k.optimistic(flags) {
				return true
			}
		}
		return false
	}
}

// Query returns the query this program was compiled from.
func (p *Program) Query() *xpath.Query { return p.query }

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
func (p *Program) ValueRootIDs() []int32 { return p.valueRoots }

// HasWildcardElem reports whether the machine has a '*' element node and
// therefore must see every start-element event.
func (p *Program) HasWildcardElem() bool { return len(p.wildElems) > 0 }

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
		b.WriteString(ProfileString(p.profile))
		b.WriteString(")\n")
	}
	p.describe(&b, p.root, 0)
	return b.String()
}

func (p *Program) describe(b *strings.Builder, m *node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	edge := "-"
	if m.axis == xpath.Descendant {
		edge = "="
	}
	b.WriteString(edge)
	switch m.kind {
	case xpath.Attribute:
		b.WriteString("@" + m.name)
	case xpath.Text:
		b.WriteString("text()")
	default:
		b.WriteString(m.name)
	}
	if m.isOutput {
		b.WriteString(" *")
	}
	b.WriteString("\n")
	for _, c := range m.children {
		p.describe(b, c, depth+1)
	}
}
