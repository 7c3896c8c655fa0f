package twigm

import (
	"strings"
	"testing"

	"repro/internal/xpath"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	q, err := xpath.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// filed returns the ids of the nodes table files under name.
func filed(p *Program, table *dispatchTable, name string) []int32 {
	return p.lookup(table, p.syms.ID(name))
}

func TestBuilderNodeIndexes(t *testing.T) {
	p := compile(t, "//a[@id and text()]//b[c]/@href")
	if len(filed(p, &p.elems, "a")) != 1 || len(filed(p, &p.elems, "b")) != 1 || len(filed(p, &p.elems, "c")) != 1 {
		t.Fatalf("element index: %v", p.ElemNameIDs())
	}
	if len(filed(p, &p.attrs, "id")) != 1 || len(filed(p, &p.attrs, "href")) != 1 {
		t.Fatalf("attr index: %v", p.AttrNameIDs())
	}
	if p.textNodes.n != 1 {
		t.Fatalf("text nodes: %d", p.textNodes.n)
	}
	if p.wildElems.n != 0 {
		t.Fatalf("wild: %d", p.wildElems.n)
	}
}

func TestBuilderWildcardIndex(t *testing.T) {
	p := compile(t, "//*[a]/*")
	if p.wildElems.n != 2 {
		t.Fatalf("wildcards: %d", p.wildElems.n)
	}
}

func TestBuilderChildBits(t *testing.T) {
	p := compile(t, "//a[x][y]//z")
	root := p.root()
	if root.children.n != 3 { // x, y, z
		t.Fatalf("children: %d", root.children.n)
	}
	seen := map[int32]bool{}
	for _, ci := range p.list(root.children) {
		c := &p.nodes[ci]
		if seen[c.childIdx] {
			t.Fatalf("duplicate childIdx %d", c.childIdx)
		}
		seen[c.childIdx] = true
		if c.parent != root.id {
			t.Fatal("parent link broken")
		}
	}
}

func TestBuilderOutputAndSpine(t *testing.T) {
	p := compile(t, "//a[x]//b/c")
	var out, spineCount int
	for i := range p.nodes {
		m := &p.nodes[i]
		if m.isOutput {
			out++
			if p.name(m) != "c" {
				t.Fatalf("output node is %q", p.name(m))
			}
		}
		if m.spine {
			spineCount++
		}
	}
	if out != 1 || spineCount != 3 {
		t.Fatalf("out=%d spine=%d", out, spineCount)
	}
}

func TestCondEvalAndOr(t *testing.T) {
	// //a[(x or y) and z]: flag bits x=0, y=1, z=2.
	p := compile(t, "//a[(x or y) and z]")
	c := &p.root().cond
	noText := &entry{}
	cases := []struct {
		flags uint64
		want  bool
	}{
		{0b000, false},
		{0b001, false}, // x only
		{0b100, false}, // z only
		{0b101, true},  // x,z
		{0b110, true},  // y,z
		{0b111, true},
		{0b011, false}, // x,y no z
	}
	for _, tc := range cases {
		if got := p.eval(c, tc.flags, noText, false); got != tc.want {
			t.Errorf("eval(%03b) = %v, want %v", tc.flags, got, tc.want)
		}
	}
}

func TestCondSelfDeferred(t *testing.T) {
	p := compile(t, "//a[.='v']")
	c := &p.root().cond
	val := &entry{textBuf: []byte("v")}
	if p.eval(c, 0, val, false) {
		t.Fatal("self comparison must be unknown before finalization")
	}
	if !p.eval(c, 0, val, true) {
		t.Fatal("self comparison must hold at pop")
	}
	bad := &entry{textBuf: []byte("w")}
	if p.eval(c, 0, bad, true) {
		t.Fatal("self comparison must fail on mismatch")
	}
}

func TestDeadAtPushAttrOnly(t *testing.T) {
	// [@id='1'] is final at push; [b] is not.
	p := compile(t, "//a[@id='1']")
	if !p.root().prunable {
		t.Fatal("attr-only predicate should be prunable")
	}
	if !p.deadAtPush(&p.root().cond, 0) {
		t.Fatal("missing attr flag should be dead at push")
	}
	if p.deadAtPush(&p.root().cond, 1) {
		t.Fatal("present attr flag should survive")
	}

	p2 := compile(t, "//a[b]")
	if p2.root().prunable {
		t.Fatal("element predicate is not decidable at push")
	}
	if p2.deadAtPush(&p2.root().cond, 0) {
		t.Fatal("element predicate may still arrive")
	}
}

func TestDeadAtPushOrRescues(t *testing.T) {
	// [@id or b]: even with the attr missing, b may arrive later.
	p := compile(t, "//a[@id or b]")
	if p.deadAtPush(&p.root().cond, 0) {
		t.Fatal("or-branch must keep the entry alive")
	}
	// [@id and b]: missing attr is fatal regardless of b.
	p2 := compile(t, "//a[@id and b]")
	if !p2.deadAtPush(&p2.root().cond, 0) {
		t.Fatal("and-branch with dead attr leaf must prune")
	}
}

func TestDescendantAttrNotFinalAtPush(t *testing.T) {
	// [.//@id]: a descendant may bring the attribute later.
	p := compile(t, "//a[.//@id]")
	if p.root().prunable {
		t.Fatal("descendant-axis attribute is not final at push")
	}
	if p.deadAtPush(&p.root().cond, 0) {
		t.Fatal("must not prune")
	}
}

func TestCompatRanges(t *testing.T) {
	p := compile(t, "//a/b")   // child element
	pd := compile(t, "//a//b") // descendant element
	pa := compile(t, "//a/@x") // child attr
	pda := compile(t, "//a//@x")
	pt := compile(t, "//a/text()")

	check := func(p *Program, level, wantLo, wantHi int) {
		t.Helper()
		m := &p.nodes[p.list(p.root().children)[0]]
		lo, hi := compatRange(m, level)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("compatRange(%s kind=%v axis=%v, %d) = [%d,%d], want [%d,%d]",
				p.label(m), m.kind, m.axis, level, lo, hi, wantLo, wantHi)
		}
	}
	check(p, 5, 4, 4)   // /b at level 5: parent exactly 4
	check(pd, 5, 0, 4)  // //b: any proper ancestor
	check(pa, 5, 5, 5)  // /@x: the owner itself
	check(pda, 5, 0, 5) // //@x: self-or-ancestor
	check(pt, 5, 4, 4)  // /text() at depth 5: parent 4
}

func TestMachineSizesAcrossFragment(t *testing.T) {
	for _, tc := range []struct {
		src  string
		size int
	}{
		{"//a", 1},
		{"/a/b/c/d", 4},
		{"//a[b][c][d]", 4},
		{"//a[b/c/d]", 4},
		{"//a[.='x']", 1}, // self comparisons are conditions, not nodes
		{"//a[text()='x']", 2},
		{"//a/@id", 2},
	} {
		p := compile(t, tc.src)
		if p.NumNodes() != tc.size {
			t.Errorf("%s: %d nodes, want %d", tc.src, p.NumNodes(), tc.size)
		}
	}
}

func TestDescribeEdges(t *testing.T) {
	p := compile(t, "/a/b//c")
	d := p.Describe()
	lines := strings.Split(strings.TrimSpace(d), "\n")
	if len(lines) != 3 {
		t.Fatalf("describe:\n%s", d)
	}
	if !strings.HasPrefix(lines[0], "-a") || !strings.Contains(lines[1], "-b") || !strings.Contains(lines[2], "=c *") {
		t.Fatalf("describe:\n%s", d)
	}
}

func TestTrailingComparisonOnPredicatePath(t *testing.T) {
	// [b/c='x']: c carries the comparison, so c needs text and is a
	// value node.
	p := compile(t, "//a[b/c='x']")
	var cNode *node
	for i := range p.nodes {
		if p.name(&p.nodes[i]) == "c" {
			cNode = &p.nodes[i]
		}
	}
	if cNode == nil || !cNode.needsText {
		t.Fatalf("c node: %+v", cNode)
	}
	if vn := p.list(p.valueNodes); len(vn) != 1 || vn[0] != cNode.id {
		t.Fatalf("valueNodes: %v", vn)
	}
}

func TestAttrCmpInline(t *testing.T) {
	p := compile(t, "//a[@id='7']")
	attr := &p.nodes[filed(p, &p.attrs, "id")[0]]
	if attr.cond.op != condSelf || !p.cmpOK(attr, "7") || p.cmpOK(attr, "8") {
		t.Fatalf("attr cmp: %+v", attr.cond)
	}
}
