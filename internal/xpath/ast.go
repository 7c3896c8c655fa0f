// Package xpath implements the "XPath parser" module of the ViteX
// architecture (ICDE 2005, figure 2): it turns an XPath string in the
// fragment XP{/, //, *, []} into the tree representation that the TwigM
// builder, the naive baseline and the DOM oracle all consume.
//
// Supported surface (abbreviated syntax):
//
//	/step, //step chains; name tests, *, @attr, text()
//	predicates [relpath], [relpath op literal], [@a op literal],
//	[text() op literal], [. op literal], and/or, parentheses,
//	nested predicates inside predicate paths
//	ops: = != < <= > >=
//
// Out of scope, rejected with ParseError (all outside XP{/,//,*,[]}):
// not(), positional predicates, functions, path-vs-path joins, reverse and
// named axes, absolute paths inside predicates, unions.
package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sax"
)

// Axis is the relationship between a query node and its parent query node.
type Axis uint8

const (
	// Child is the '/' axis. For Attribute nodes it reads "attribute of
	// the element itself"; for Text nodes, "text-node child".
	Child Axis = iota
	// Descendant is the '//' axis: proper descendant for elements and
	// text nodes, self-or-descendant for attributes (per the
	// descendant-or-self::node() expansion of '//').
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Kind discriminates query-node variants.
type Kind uint8

const (
	// Element matches elements by name (or any element for "*").
	Element Kind = iota
	// Attribute matches an attribute by name; its value is the node's
	// string-value.
	Attribute
	// Text matches text nodes; each maximal character-data run is one
	// node.
	Text
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	default:
		return "text()"
	}
}

// Op is a comparison operator in a value predicate.
type Op uint8

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (o Op) String() string { return opNames[o] }

// Comparison is a value test attached to a query node: the node's
// string-value compared against a literal.
//
// Semantics (shared by all three engines; a deliberate, documented
// simplification of XPath 1.0 coercion): if the literal was written as a
// number, both sides are compared numerically and a node whose string-value
// does not parse as a number fails the comparison (including !=; XPath's
// NaN-propagating != is not reproduced). If the literal is a quoted string,
// = and != compare strings, while the ordering operators convert both sides
// to numbers.
type Comparison struct {
	Op      Op
	Literal string  // literal text (unquoted)
	Number  float64 // parsed value when IsNumber
	IsNum   bool    // literal was a number token
}

// Eval reports whether value op literal holds under the comparison rules
// above.
func (c *Comparison) Eval(value string) bool {
	numeric := c.IsNum || c.Op >= OpLt
	if numeric {
		rhs := c.Number
		if !c.IsNum {
			f, err := strconv.ParseFloat(strings.TrimSpace(c.Literal), 64)
			if err != nil {
				return false
			}
			rhs = f
		}
		lhs, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return false
		}
		switch c.Op {
		case OpEq:
			return lhs == rhs
		case OpNe:
			return lhs != rhs
		case OpLt:
			return lhs < rhs
		case OpLe:
			return lhs <= rhs
		case OpGt:
			return lhs > rhs
		default:
			return lhs >= rhs
		}
	}
	if c.Op == OpEq {
		return value == c.Literal
	}
	return value != c.Literal // OpNe
}

// String prints the comparison so that it parses back to itself: a number
// in positional notation (the lexer reads no exponent), a string in double
// quotes when it holds a single quote (a literal cannot hold both).
func (c *Comparison) String() string {
	if c.IsNum {
		return fmt.Sprintf(" %s %s", c.Op, strconv.FormatFloat(c.Number, 'f', -1, 64))
	}
	if strings.Contains(c.Literal, "'") {
		return fmt.Sprintf(" %s \"%s\"", c.Op, c.Literal)
	}
	return fmt.Sprintf(" %s '%s'", c.Op, c.Literal)
}

// PredOp is the operator of a predicate-expression node.
type PredOp uint8

const (
	// PredLeaf tests existence of a match of Leaf's subtree.
	PredLeaf PredOp = iota
	// PredSelf tests the owning node's own string-value via Self.
	PredSelf
	// PredAnd / PredOr combine Kids.
	PredAnd
	PredOr
	// PredTrue is the constant-true predicate ("[.]").
	PredTrue
)

// PredExpr is a boolean expression over predicate leaves. A query node's
// predicate set [p1][p2]... is the PredAnd of the individual bracket
// expressions.
type PredExpr struct {
	Op   PredOp
	Kids []*PredExpr // PredAnd, PredOr
	Leaf *Node       // PredLeaf: first node of the relative path
	Self *Comparison // PredSelf
}

// Node is one node of the query tree. The top-level path forms the spine
// (linked by Next with Spine=true); predicate relative paths are also linked
// by Next but with Spine=false. The output node is the spine node whose Next
// is nil.
type Node struct {
	Kind Kind
	// Name is the element or attribute name test as written ("p:a" for a
	// prefixed test); "*" for the wildcard; unused for text().
	Name string
	// Prefix and Local split Name at its namespace colon. A name test
	// matches nodes whose local name equals Local; when Prefix is
	// non-empty the node's lexical prefix must also equal Prefix.
	Prefix string
	Local  string
	Axis   Axis
	// Next is the continuation of this node's path chain, if any.
	Next *Node
	// Pred is this node's predicate expression, nil when there are no
	// brackets. Satisfaction of a node = Pred ∧ (Next matched) ∧ Cmp.
	Pred *PredExpr
	// Cmp is a value test on this node's own string-value, attached by a
	// trailing comparison on the path that ends at this node.
	Cmp *Comparison
	// Spine marks nodes on the top-level path.
	Spine bool
}

// Query is a parsed XPath query. It is the TwigM builder's input, read once:
// a compiled program keeps none of it but the Source string, whose bytes
// spell the names and literals the program refers to (every string of the
// tree is a substring of it).
type Query struct {
	// Root is the first step of the spine.
	Root *Node
	// Output is the spine leaf whose matches are the query solutions.
	Output *Node
	// Source is the original query text.
	Source string
}

// Wildcard reports whether n matches every element name.
func (n *Node) Wildcard() bool { return n.Kind == Element && n.Name == "*" }

// Matches reports whether a lexical QName satisfies this node's name test:
// the wildcard matches everything; otherwise local names must agree, and a
// prefixed test additionally requires the name's prefix. Only meaningful for
// Element and Attribute nodes.
func (n *Node) Matches(name string) bool {
	if n.Name == "*" {
		return true
	}
	tp, tl := n.Prefix, n.Local
	if tl == "" && n.Name != "" {
		// Node built without the parser: split on demand.
		tp, tl = sax.SplitName(n.Name)
	}
	prefix, local := sax.SplitName(name)
	if tl != local {
		return false
	}
	return tp == "" || tp == prefix
}

// Size returns the number of query nodes in the subtree rooted at n,
// including nodes reached through predicates — the |Q| of the paper's
// complexity bounds.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	size := 1 + n.Next.Size()
	size += n.Pred.size()
	return size
}

func (p *PredExpr) size() int {
	if p == nil {
		return 0
	}
	s := 0
	for _, k := range p.Kids {
		s += k.size()
	}
	if p.Leaf != nil {
		s += p.Leaf.Size()
	}
	return s
}

// Size returns the total number of query nodes — the paper's |Q|.
func (q *Query) Size() int { return q.Root.Size() }

// String reconstructs a canonical form of the query.
func (q *Query) String() string {
	var b strings.Builder
	writePath(&b, q.Root)
	return b.String()
}

func writePath(b *strings.Builder, n *Node) {
	for ; n != nil; n = n.Next {
		b.WriteString(n.Axis.String())
		writeStep(b, n, 0)
	}
}

// writeStep prints one step; depth is the number of brackets and
// parentheses open around it.
func writeStep(b *strings.Builder, n *Node, depth int) {
	switch n.Kind {
	case Attribute:
		b.WriteByte('@')
		b.WriteString(n.Name)
	case Text:
		b.WriteString("text()")
	default:
		b.WriteString(n.Name)
	}
	if n.Pred != nil {
		writeBrackets(b, n.Pred, depth+1)
	}
	if n.Cmp != nil {
		b.WriteString(n.Cmp.String())
	}
}

// writeBrackets prints a step's predicate in a bracket at nesting level
// depth. In one bracket an 'or' among the conjuncts of a conjunction needs
// parentheses, one level more than [p or q][r] — what such a conjunction
// parses from — has. At MaxNestingDepth that level would not parse back, so
// there the conjuncts (nested conjunctions flattened) get a bracket each.
func writeBrackets(b *strings.Builder, p *PredExpr, depth int) {
	if depth == MaxNestingDepth && p.Op == PredAnd && hasOrConjunct(p) {
		writeConjuncts(b, p, depth)
		return
	}
	b.WriteByte('[')
	writePred(b, p, depth)
	b.WriteByte(']')
}

// hasOrConjunct reports whether a conjunction, nested ones flattened, has an
// 'or' among its conjuncts.
func hasOrConjunct(p *PredExpr) bool {
	for _, k := range p.Kids {
		if k.Op == PredOr || k.Op == PredAnd && hasOrConjunct(k) {
			return true
		}
	}
	return false
}

// writeConjuncts prints each conjunct of p, nested conjunctions flattened, in
// a bracket of its own.
func writeConjuncts(b *strings.Builder, p *PredExpr, depth int) {
	for _, k := range p.Kids {
		if k.Op == PredAnd {
			writeConjuncts(b, k, depth)
			continue
		}
		b.WriteByte('[')
		writePred(b, k, depth)
		b.WriteByte(']')
	}
}

func writePred(b *strings.Builder, p *PredExpr, depth int) {
	switch p.Op {
	case PredTrue:
		b.WriteByte('.')
	case PredSelf:
		b.WriteByte('.')
		b.WriteString(p.Self.String())
	case PredLeaf:
		// Relative paths print without the leading axis for child.
		n := p.Leaf
		if n.Axis == Descendant {
			b.WriteString(".//")
		}
		writeStep(b, n, depth)
		for n = n.Next; n != nil; n = n.Next {
			b.WriteString(n.Axis.String())
			writeStep(b, n, depth)
		}
	case PredAnd, PredOr:
		word := " and "
		if p.Op == PredOr {
			word = " or "
		}
		for i, k := range p.Kids {
			if i > 0 {
				b.WriteString(word)
			}
			// 'and' binds tighter than 'or': only an 'or' nested in
			// an 'and' needs parentheses.
			if k.Op == PredOr && p.Op == PredAnd {
				b.WriteByte('(')
				writePred(b, k, depth+1)
				b.WriteByte(')')
			} else {
				writePred(b, k, depth)
			}
		}
	}
}

// Walk calls fn for every query node in the tree (spine and predicates), in
// a deterministic pre-order.
func (q *Query) Walk(fn func(*Node)) { walkNode(q.Root, fn) }

func walkNode(n *Node, fn func(*Node)) {
	for ; n != nil; n = n.Next {
		fn(n)
		walkPred(n.Pred, fn)
	}
}

func walkPred(p *PredExpr, fn func(*Node)) {
	if p == nil {
		return
	}
	if p.Leaf != nil {
		walkNode(p.Leaf, fn)
	}
	for _, k := range p.Kids {
		walkPred(k, fn)
	}
}
