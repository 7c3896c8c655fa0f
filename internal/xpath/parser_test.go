package xpath

import (
	"errors"
	"strings"
	"testing"
)

// roundTrip checks that a query parses and its canonical form re-parses to
// the same canonical form (fixed point).
func roundTrip(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	canon := q.String()
	q2, err := Parse(canon)
	if err != nil {
		t.Fatalf("reparse of canonical %q (from %q): %v", canon, src, err)
	}
	if got := q2.String(); got != canon {
		t.Fatalf("canonical form unstable: %q -> %q -> %q", src, canon, got)
	}
	return q
}

func TestParseSimplePaths(t *testing.T) {
	cases := []struct {
		src   string
		canon string
		size  int
	}{
		{"/a", "/a", 1},
		{"//a", "//a", 1},
		{"/a/b", "/a/b", 2},
		{"//a//b", "//a//b", 2},
		{"/a//b/c", "/a//b/c", 3},
		{"//*", "//*", 1},
		{"/a/*/b", "/a/*/b", 3},
		{"//a/@id", "//a/@id", 2},
		{"//a//@id", "//a//@id", 2},
		{"//a/text()", "//a/text()", 2},
		{"//a//text()", "//a//text()", 2},
		{" //a / b ", "//a/b", 2},
	}
	for _, c := range cases {
		q := roundTrip(t, c.src)
		if got := q.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.canon)
		}
		if got := q.Size(); got != c.size {
			t.Errorf("Parse(%q).Size() = %d, want %d", c.src, got, c.size)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []struct {
		src   string
		canon string
		size  int
	}{
		{"//a[b]", "//a[b]", 2},
		{"//a[b][c]", "//a[b and c]", 3},
		{"//a[b and c]", "//a[b and c]", 3},
		{"//a[b or c]", "//a[b or c]", 3},
		{"//a[b and c or d]", "//a[b and c or d]", 4},
		{"//a[(b or c) and d]", "//a[(b or c) and d]", 4},
		{"//a[b/c]", "//a[b/c]", 3},
		{"//a[b//c]", "//a[b//c]", 3},
		{"//a[.//b]", "//a[.//b]", 2},
		{"//a[./b]", "//a[b]", 2},
		{"//a[@id]", "//a[@id]", 2},
		{"//a[text()]", "//a[text()]", 2},
		{"//a[b[c]/d]", "//a[b[c]/d]", 4},
		{"//section[author]//table[position]//cell",
			"//section[author]//table[position]//cell", 5},
	}
	for _, c := range cases {
		q := roundTrip(t, c.src)
		if got := q.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.canon)
		}
		if got := q.Size(); got != c.size {
			t.Errorf("Parse(%q).Size() = %d, want %d", c.src, got, c.size)
		}
	}
}

func TestParseComparisons(t *testing.T) {
	cases := []struct {
		src   string
		canon string
	}{
		{"//a[b='x']", "//a[b = 'x']"},
		{`//a[b="x"]`, "//a[b = 'x']"},
		{"//a[b!='x']", "//a[b != 'x']"},
		{"//a[@id='7']", "//a[@id = '7']"},
		{"//a[b=3]", "//a[b = 3]"},
		{"//a[b<3]", "//a[b < 3]"},
		{"//a[b<=3.5]", "//a[b <= 3.5]"},
		{"//a[b>3]", "//a[b > 3]"},
		{"//a[b>=-2]", "//a[b >= -2]"},
		{"//a[.='x']", "//a[. = 'x']"},
		{"//a[text()='x']", "//a[text() = 'x']"},
		{"//a[b/c='x']", "//a[b/c = 'x']"},
		{"//a[.//b='x']", "//a[.//b = 'x']"},
		{"//a[.]", "//a[.]"},
	}
	for _, c := range cases {
		q := roundTrip(t, c.src)
		if got := q.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.canon)
		}
	}
}

func TestOutputNode(t *testing.T) {
	q := MustParse("//a[b]//c/@id")
	if q.Output.Kind != Attribute || q.Output.Name != "id" {
		t.Fatalf("output node = %+v, want @id", q.Output)
	}
	if !q.Output.Spine {
		t.Fatal("output node must be on the spine")
	}
	// Predicate nodes are not spine nodes.
	var b *Node
	q.Walk(func(n *Node) {
		if n.Kind == Element && n.Name == "b" {
			b = n
		}
	})
	if b == nil || b.Spine {
		t.Fatalf("predicate node b: %+v, want non-spine", b)
	}
}

func TestSpineChain(t *testing.T) {
	q := MustParse("//a/b//c")
	var names []string
	for n := q.Root; n != nil; n = n.Next {
		names = append(names, n.Name)
		if !n.Spine {
			t.Fatalf("spine node %s not marked Spine", n.Name)
		}
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("spine = %v", names)
	}
	if q.Root.Axis != Descendant || q.Root.Next.Axis != Child || q.Output.Axis != Descendant {
		t.Fatal("axes wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src    string
		substr string
	}{
		{"", "must begin"},
		{"a/b", "must begin"},
		{"/", "expected a step"},
		{"//", "expected a step"},
		{"//a[", "expected a step"},
		{"//a[]", "expected a step"},
		{"//a[b", "expected ']'"},
		{"//a]", "unexpected"},
		{"//a[//b]", "absolute paths"},
		{"//a[/b]", "absolute paths"},
		{"//a[b=]", "expected a literal"},
		{"//a[b=c]", "expected a literal"},
		{"//a['x'=b]", "literal-first"},
		{"//a[b!c]", "'!' must be followed"},
		{"//a[f(x)]", "unsupported function f()"},
		{"//a[not(b)]", "unsupported function not()"},
		{"//a[position()]", "unsupported function position()"},
		{"//a[1]", "literal-first"},
		{"//@id/a", "final step"},
		{"//text()/a", "final step"},
		{"//a[@id/b]", "final step"},
		{"//a[text()/b]", "final step"},
		{"//a[b]'", "unterminated string"},
		{"//a[(b]", "expected ')'"},
		{"//a $", "unexpected character"},
		{"//a//", "expected a step"},
		{"//a b", "unexpected name"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.src, c.substr)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, err, c.substr)
		}
	}
}

func TestComparisonEval(t *testing.T) {
	cases := []struct {
		cmp   Comparison
		value string
		want  bool
	}{
		{Comparison{Op: OpEq, Literal: "x"}, "x", true},
		{Comparison{Op: OpEq, Literal: "x"}, "y", false},
		{Comparison{Op: OpNe, Literal: "x"}, "y", true},
		{Comparison{Op: OpNe, Literal: "x"}, "x", false},
		{Comparison{Op: OpEq, Literal: "3", Number: 3, IsNum: true}, "3.0", true},
		{Comparison{Op: OpEq, Literal: "3", Number: 3, IsNum: true}, " 3 ", true},
		{Comparison{Op: OpEq, Literal: "3", Number: 3, IsNum: true}, "4", false},
		{Comparison{Op: OpEq, Literal: "3", Number: 3, IsNum: true}, "pig", false},
		{Comparison{Op: OpNe, Literal: "3", Number: 3, IsNum: true}, "pig", false}, // documented NaN divergence
		{Comparison{Op: OpLt, Literal: "3", Number: 3, IsNum: true}, "2.5", true},
		{Comparison{Op: OpLe, Literal: "3", Number: 3, IsNum: true}, "3", true},
		{Comparison{Op: OpGt, Literal: "3", Number: 3, IsNum: true}, "3", false},
		{Comparison{Op: OpGe, Literal: "3", Number: 3, IsNum: true}, "3", true},
		// Ordering with a string literal converts both sides to numbers.
		{Comparison{Op: OpLt, Literal: "10"}, "9", true},
		{Comparison{Op: OpLt, Literal: "10"}, "11", false},
		{Comparison{Op: OpLt, Literal: "pig"}, "9", false},
	}
	for i, c := range cases {
		if got := c.cmp.Eval(c.value); got != c.want {
			t.Errorf("case %d: Eval(%q) %s = %v, want %v", i, c.value, c.cmp.String(), got, c.want)
		}
	}
}

func TestWalkOrderDeterministic(t *testing.T) {
	q := MustParse("//a[x/y or @z]//b[w]/c")
	var names []string
	q.Walk(func(n *Node) {
		name := n.Name
		if n.Kind == Text {
			name = "text()"
		}
		names = append(names, name)
	})
	want := "a,x,y,z,b,w,c"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("walk order = %s, want %s", got, want)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad query should panic")
		}
	}()
	MustParse("not a query")
}

func TestSizeCountsPredicateSubtrees(t *testing.T) {
	// a + (b + c) + d + e = 5
	if got := MustParse("//a[b/c]//d/e").Size(); got != 5 {
		t.Fatalf("Size = %d, want 5", got)
	}
}

func TestPrefixedNameTests(t *testing.T) {
	q := MustParse("//p:a[@n:k]/b")
	if q.Root.Name != "p:a" || q.Root.Prefix != "p" || q.Root.Local != "a" {
		t.Fatalf("root = %+v", q.Root)
	}
	attr := q.Root.Pred.Leaf
	if attr.Name != "n:k" || attr.Prefix != "n" || attr.Local != "k" {
		t.Fatalf("attr = %+v", attr)
	}
	if b := q.Root.Next; b.Prefix != "" || b.Local != "b" {
		t.Fatalf("b = %+v", b)
	}
	if q.String() != "//p:a[n:k]/b" && q.String() != "//p:a[@n:k]/b" {
		t.Fatalf("String() = %q", q.String())
	}
	for _, bad := range []string{"//:a", "//p:", "//p:a:b", "//x[@:k]"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestNameTestMatchesLocalAndPrefix(t *testing.T) {
	a := MustParse("//a").Root
	pa := MustParse("//p:a").Root
	star := MustParse("//*").Root
	cases := []struct {
		n    *Node
		name string
		want bool
	}{
		{a, "a", true}, {a, "p:a", true}, {a, "b", false}, {a, "p:b", false},
		{pa, "p:a", true}, {pa, "a", false}, {pa, "q:a", false},
		{star, "anything", true}, {star, "p:x", true},
	}
	for _, c := range cases {
		if got := c.n.Matches(c.name); got != c.want {
			t.Errorf("%s.Matches(%q) = %v, want %v", c.n.Name, c.name, got, c.want)
		}
	}
}

// TestParseLimits: each limit admits a query exactly at it and refuses one
// past it with a *ParseError that names the limit.
func TestParseLimits(t *testing.T) {
	brackets := func(n int) string { return "//a" + strings.Repeat("[b", n) + strings.Repeat("]", n) }
	parens := func(n int) string { return "//a[" + strings.Repeat("(", n-1) + "b" + strings.Repeat(")", n-1) + "]" }
	steps := func(n int) string { return strings.Repeat("/a", n) }
	literal := func(n int) string { return "//a[. = '" + strings.Repeat("x", n) + "']" }
	number := func(n int) string { return "//a[b = 0." + strings.Repeat("0", n-3) + "1]" }
	cases := []struct {
		limit    string
		at, past string
	}{
		{"MaxNestingDepth", brackets(MaxNestingDepth), brackets(MaxNestingDepth + 1)},
		{"MaxNestingDepth", parens(MaxNestingDepth), parens(MaxNestingDepth + 1)},
		{"MaxSteps", steps(MaxSteps), steps(MaxSteps + 1)},
		{"MaxSteps", steps(MaxSteps/2) + " | " + steps(MaxSteps/2), steps(MaxSteps/2) + " | " + steps(MaxSteps/2+1)},
		{"MaxLiteralBytes", literal(MaxLiteralBytes), literal(MaxLiteralBytes + 1)},
		{"MaxLiteralBytes", number(MaxLiteralBytes), number(MaxLiteralBytes + 1)},
	}
	for _, c := range cases {
		if _, err := ParseUnion(c.at); err != nil {
			t.Errorf("%s: a query at the limit fails: %v", c.limit, err)
		}
		_, err := ParseUnion(c.past)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, c.limit) {
			t.Errorf("%s: a query past the limit: err = %v, want a *ParseError naming the limit", c.limit, err)
		}
	}
}
