package xpath

import "strings"

// Limits on one query's source text, union branches included. The parser
// checks each before it recurses or allocates past it and reports a
// *ParseError naming the limit, so a hostile query costs a bounded parse and
// the recursive passes after it — xpath.Walk, twigm's build — never see a
// deeper tree.
const (
	// MaxNestingDepth bounds how deeply predicate brackets and parentheses
	// nest.
	MaxNestingDepth = 64
	// MaxSteps bounds the location steps of a query, predicate paths
	// included.
	MaxSteps = 1024
	// MaxLiteralBytes bounds one string or numeric literal.
	MaxLiteralBytes = 4096
)

// Parse compiles an XPath query in XP{/,//,*,[]} into a Query tree. It is
// the entry point of the "XPath parser" module of the ViteX architecture.
// Union expressions ('p1 | p2') are rejected here; use ParseUnion.
func Parse(src string) (*Query, error) {
	qs, err := ParseUnion(src)
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 {
		return nil, &ParseError{Query: src, Pos: 0, Msg: "union query where a single path is required; use ParseUnion"}
	}
	return qs[0], nil
}

// ParseUnion compiles 'path | path | ...' into one Query per branch. Each
// branch is an independent query tree; union semantics (set union of the
// branch results, deduplicated by node, in document order) are implemented
// by the evaluators.
func ParseUnion(src string) ([]*Query, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var qs []*Query
	for {
		root, err := p.parsePath(true)
		if err != nil {
			return nil, err
		}
		q := &Query{Root: root, Source: src}
		out := root
		for out.Next != nil {
			out = out.Next
		}
		q.Output = out
		for n := root; n != nil; n = n.Next {
			n.Spine = true
		}
		if err := validate(q); err != nil {
			return nil, err
		}
		qs = append(qs, q)
		if p.tok.kind != tokPipe {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("unexpected %s after end of path", p.tok.kind)
	}
	return qs, nil
}

// MustParse is Parse that panics on error; intended for tests, examples and
// package-level query constants.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lex lexer
	tok token
	// depth is the number of open '[' and '(' around the current token;
	// steps counts the location steps parsed so far.
	depth int
	steps int
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errHere(format string, args ...any) *ParseError {
	return p.lex.errf(p.tok.pos, format, args...)
}

// open consumes the '[' or '(' at the current token, one level deeper.
func (p *parser) open() error {
	if p.depth == MaxNestingDepth {
		return p.errHere("predicates and parentheses nest deeper than MaxNestingDepth (%d)", MaxNestingDepth)
	}
	p.depth++
	return p.advance()
}

// parsePath parses ('/'|'//') Step (('/'|'//') Step)*. For top-level paths
// (absolute=true) the leading axis is mandatory; predicate-relative paths
// instead begin with an implicit child axis or an explicit './/' handled by
// the caller.
func (p *parser) parsePath(absolute bool) (*Node, error) {
	if p.tok.kind != tokSlash && p.tok.kind != tokDSlash {
		return nil, p.errHere("query must begin with '/' or '//', found %s", p.tok.kind)
	}
	var head, tail *Node
	for p.tok.kind == tokSlash || p.tok.kind == tokDSlash {
		axis := Child
		if p.tok.kind == tokDSlash {
			axis = Descendant
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		step, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		if tail == nil {
			head = step
		} else {
			tail.Next = step
		}
		tail = step
	}
	_ = absolute
	return head, nil
}

// parseStep parses one step: '@name', 'text()', name or '*', with optional
// predicates on element steps.
func (p *parser) parseStep(axis Axis) (*Node, error) {
	if p.steps == MaxSteps {
		return nil, p.errHere("query has more than MaxSteps (%d) location steps", MaxSteps)
	}
	p.steps++
	switch p.tok.kind {
	case tokAt:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokName {
			return nil, p.errHere("expected attribute name after '@', found %s", p.tok.kind)
		}
		n := &Node{Kind: Attribute, Name: p.tok.text, Axis: axis}
		if err := splitQName(n, &p.lex, p.tok.pos); err != nil {
			return nil, err
		}
		return n, p.advance()
	case tokStar:
		n := &Node{Kind: Element, Name: "*", Local: "*", Axis: axis}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parsePredicates(n)
	case tokName:
		name := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			if name != "text" {
				return nil, p.lex.errf(pos, "unsupported function %s()", name)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokRParen {
				return nil, p.errHere("expected ')' after 'text(', found %s", p.tok.kind)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Node{Kind: Text, Axis: axis}, nil
		}
		n := &Node{Kind: Element, Name: name, Axis: axis}
		if err := splitQName(n, &p.lex, pos); err != nil {
			return nil, err
		}
		return p.parsePredicates(n)
	default:
		return nil, p.errHere("expected a step, found %s", p.tok.kind)
	}
}

// splitQName fills in n's Prefix/Local from its Name, rejecting malformed
// QNames (empty prefix or local part, more than one colon).
func splitQName(n *Node, l *lexer, pos int) error {
	name := n.Name
	i := strings.IndexByte(name, ':')
	if i < 0 {
		n.Local = name
		return nil
	}
	if i == 0 || i == len(name)-1 || strings.IndexByte(name[i+1:], ':') >= 0 {
		return l.errf(pos, "malformed QName %q", name)
	}
	n.Prefix, n.Local = name[:i], name[i+1:]
	return nil
}

// parsePredicates attaches zero or more bracket expressions to n, combining
// multiple brackets with AND.
func (p *parser) parsePredicates(n *Node) (*Node, error) {
	for p.tok.kind == tokLBracket {
		if err := p.open(); err != nil {
			return nil, err
		}
		expr, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRBracket {
			return nil, p.errHere("expected ']', found %s", p.tok.kind)
		}
		p.depth--
		if err := p.advance(); err != nil {
			return nil, err
		}
		if n.Pred == nil {
			n.Pred = expr
		} else if n.Pred.Op == PredAnd {
			n.Pred.Kids = append(n.Pred.Kids, expr)
		} else {
			n.Pred = &PredExpr{Op: PredAnd, Kids: []*PredExpr{n.Pred, expr}}
		}
	}
	return n, nil
}

func (p *parser) parseOr() (*PredExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokOr {
		return left, nil
	}
	or := &PredExpr{Op: PredOr, Kids: []*PredExpr{left}}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		or.Kids = append(or.Kids, right)
	}
	return or, nil
}

func (p *parser) parseAnd() (*PredExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokAnd {
		return left, nil
	}
	and := &PredExpr{Op: PredAnd, Kids: []*PredExpr{left}}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		and.Kids = append(and.Kids, right)
	}
	return and, nil
}

// parseUnary parses '(' expr ')' or a path predicate.
func (p *parser) parseUnary() (*PredExpr, error) {
	if p.tok.kind == tokLParen {
		if err := p.open(); err != nil {
			return nil, err
		}
		expr, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errHere("expected ')', found %s", p.tok.kind)
		}
		p.depth--
		return expr, p.advance()
	}
	return p.parsePathPred()
}

// parsePathPred parses a relative path with an optional trailing comparison:
//
//	. [op literal]
//	relpath [op literal]
//	.//relpath [op literal]
//
// A bare '//' is rejected: in XPath it would restart from the document root,
// which is almost never what a predicate author means; './/...' expresses
// the descendant version explicitly.
func (p *parser) parsePathPred() (*PredExpr, error) {
	switch p.tok.kind {
	case tokSlash, tokDSlash:
		return nil, p.errHere("absolute paths are not allowed inside predicates; use './/' for descendants")
	case tokDot:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokSlash || p.tok.kind == tokDSlash {
			// './/a' or './a' — a relative path with explicit axis.
			head, err := p.parseRelPathFrom()
			if err != nil {
				return nil, err
			}
			return p.attachComparison(head)
		}
		if p.tok.kind == tokOp {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			return &PredExpr{Op: PredSelf, Self: cmp}, nil
		}
		return &PredExpr{Op: PredTrue}, nil
	case tokString, tokNumber:
		return nil, p.errHere("literal-first comparisons are not supported; write 'path op literal'")
	default:
		head, err := p.parseRelStepChain()
		if err != nil {
			return nil, err
		}
		return p.attachComparison(head)
	}
}

// parseRelPathFrom parses the ('/'|'//') Step ... continuation after '.'.
func (p *parser) parseRelPathFrom() (*Node, error) {
	return p.parsePath(false)
}

// parseRelStepChain parses 'step (('/'|'//') step)*' with an implicit child
// axis on the first step.
func (p *parser) parseRelStepChain() (*Node, error) {
	head, err := p.parseStep(Child)
	if err != nil {
		return nil, err
	}
	tail := head
	for p.tok.kind == tokSlash || p.tok.kind == tokDSlash {
		axis := Child
		if p.tok.kind == tokDSlash {
			axis = Descendant
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		step, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		tail.Next = step
		tail = step
	}
	return head, nil
}

// attachComparison wraps a predicate path in a PredLeaf, attaching a
// trailing comparison to the path's last node.
func (p *parser) attachComparison(head *Node) (*PredExpr, error) {
	if p.tok.kind == tokOp {
		cmp, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		tail := head
		for tail.Next != nil {
			tail = tail.Next
		}
		tail.Cmp = cmp
	}
	return &PredExpr{Op: PredLeaf, Leaf: head}, nil
}

func (p *parser) parseComparison() (*Comparison, error) {
	op := p.tok.op
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokString:
		c := &Comparison{Op: op, Literal: p.tok.text}
		return c, p.advance()
	case tokNumber:
		c := &Comparison{Op: op, Literal: p.tok.text, Number: p.tok.num, IsNum: true}
		return c, p.advance()
	default:
		return nil, p.errHere("expected a literal after comparison operator, found %s (path-vs-path comparisons are not supported)", p.tok.kind)
	}
}

// validate enforces the semantic rules of the fragment.
func validate(q *Query) error {
	perr := func(msg string) error { return &ParseError{Query: q.Source, Pos: len(q.Source), Msg: msg} }
	// Non-final spine steps must be elements: /a/@id/b is meaningless.
	for n := q.Root; n != nil; n = n.Next {
		if n.Next != nil && n.Kind != Element {
			return perr("only the final step of a path may be an attribute or text() step")
		}
	}
	var err error
	q.Walk(func(n *Node) {
		if err != nil {
			return
		}
		if n.Kind != Element {
			if n.Pred != nil {
				err = perr("predicates on attribute or text() steps are not supported")
			}
			if n.Next != nil {
				err = perr("only the final step of a path may be an attribute or text() step")
			}
		}
	})
	return err
}
