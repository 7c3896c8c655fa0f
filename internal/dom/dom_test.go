package dom

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax/saxtest"
	"repro/internal/xmlscan"
)

// buildStd builds doc on saxtest's encoding/xml reference front-end, so the
// oracle's own tree does not rest on the scanner it is used to check.
func buildStd(doc string) *Document {
	d, err := Build(saxtest.NewStdDriver(strings.NewReader(doc)))
	if err != nil {
		panic(err)
	}
	return d
}

func results(t *testing.T, doc, query string) []string {
	t.Helper()
	d := buildStd(doc)
	nodes := EvalString(d, query)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Serialize())
	}
	return out
}

func assertResults(t *testing.T, doc, query string, want ...string) {
	t.Helper()
	got := results(t, doc, query)
	if len(got) != len(want) {
		t.Fatalf("%s over %q:\n got %q\nwant %q", query, doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s over %q: result %d = %q, want %q", query, doc, i, got[i], want[i])
		}
	}
}

func TestChildAxis(t *testing.T) {
	assertResults(t, "<a><b>1</b><c/><b>2</b></a>", "/a/b", "<b>1</b>", "<b>2</b>")
}

func TestRootNameMustMatch(t *testing.T) {
	assertResults(t, "<a><b/></a>", "/x/b")
	assertResults(t, "<a><b/></a>", "/a/b", "<b/>")
}

func TestDescendantAxis(t *testing.T) {
	assertResults(t, "<a><x><b>1</b></x><b>2</b></a>", "//b", "<b>1</b>", "<b>2</b>")
}

func TestDescendantIsProper(t *testing.T) {
	// //a//a must not return a node as a descendant of itself.
	assertResults(t, "<a><a><a/></a></a>", "//a//a", "<a><a/></a>", "<a/>")
}

func TestWildcard(t *testing.T) {
	assertResults(t, "<a><b/><c/></a>", "/a/*", "<b/>", "<c/>")
}

func TestAttributeOutput(t *testing.T) {
	assertResults(t, `<a><b id="1"/><b/><b id="2"/></a>`, "//b/@id", "1", "2")
}

func TestAttributeDescendantIncludesSelf(t *testing.T) {
	// '//' + @: attribute of self or any descendant.
	assertResults(t, `<a id="root"><b id="inner"/></a>`, "/a//@id", "root", "inner")
}

func TestTextOutput(t *testing.T) {
	assertResults(t, "<a>x<b>y</b>z</a>", "/a/text()", "x", "z")
	assertResults(t, "<a>x<b>y</b>z</a>", "/a//text()", "x", "y", "z")
}

func TestExistencePredicate(t *testing.T) {
	assertResults(t, "<r><a><b/></a><a/><a><b/></a></r>", "//a[b]",
		"<a><b/></a>", "<a><b/></a>")
}

func TestPredicatePath(t *testing.T) {
	assertResults(t, "<r><a><b><c/></b></a><a><b/></a></r>", "//a[b/c]", "<a><b><c/></b></a>")
	assertResults(t, "<r><a><x><c/></x></a><a><c/></a><a/></r>", "//a[.//c]",
		"<a><x><c/></x></a>", "<a><c/></a>")
}

func TestValueComparisons(t *testing.T) {
	doc := "<r><p><price>10</price></p><p><price>30</price></p></r>"
	assertResults(t, doc, "//p[price<20]", "<p><price>10</price></p>")
	assertResults(t, doc, "//p[price=30]", "<p><price>30</price></p>")
	assertResults(t, doc, "//p[price!=30]", "<p><price>10</price></p>")
	assertResults(t, doc, "//p[price>=10]", "<p><price>10</price></p>", "<p><price>30</price></p>")
}

func TestStringComparison(t *testing.T) {
	doc := `<r><u n="bob"/><u n="eve"/></r>`
	assertResults(t, doc, "//u[@n='eve']", `<u n="eve"/>`)
	assertResults(t, doc, "//u[@n!='eve']", `<u n="bob"/>`)
}

func TestSelfComparison(t *testing.T) {
	assertResults(t, "<r><a>x</a><a>y</a></r>", "//a[.='x']", "<a>x</a>")
}

func TestStringValueConcatenatesDescendants(t *testing.T) {
	d := buildStd("<a>x<b>y<c>z</c></b>w</a>")
	if sv := d.Root.StringValue(); sv != "xyzw" {
		t.Fatalf("string-value = %q, want xyzw", sv)
	}
	// [.='xyzw'] sees the concatenated value.
	assertResults(t, "<r><a>x<b>y<c>z</c></b>w</a></r>", "//a[.='xyzw']", "<a>x<b>y<c>z</c></b>w</a>")
}

func TestTextNodePredicateSeesRuns(t *testing.T) {
	// text() compares individual text nodes, not the string-value.
	assertResults(t, "<r><a>x<b/>y</a></r>", "//a[text()='x']", "<a>x<b/>y</a>")
	assertResults(t, "<r><a>x<b/>y</a></r>", "//a[text()='y']", "<a>x<b/>y</a>")
	assertResults(t, "<r><a>x<b/>y</a></r>", "//a[text()='xy']")
	assertResults(t, "<r><a>x<b>q</b>y</a></r>", "//a[text()='q']")
}

func TestAndOr(t *testing.T) {
	doc := "<r><a><x/><y/></a><a><x/></a><a><y/></a><a/></r>"
	assertResults(t, doc, "//a[x and y]", "<a><x/><y/></a>")
	assertResults(t, doc, "//a[x or y]", "<a><x/><y/></a>", "<a><x/></a>", "<a><y/></a>")
	assertResults(t, doc, "//a[x and (y or x)]", "<a><x/><y/></a>", "<a><x/></a>")
}

func TestNestedPredicates(t *testing.T) {
	doc := "<r><a><b><c/></b></a><a><b/></a></r>"
	assertResults(t, doc, "//a[b[c]]", "<a><b><c/></b></a>")
}

func TestResultsInDocumentOrderNoDuplicates(t *testing.T) {
	// c is a descendant of both a-nodes; it must be returned once.
	doc := "<a><a><c/></a></a>"
	assertResults(t, doc, "//a//c", "<c/>")
}

func TestPaperExample(t *testing.T) {
	// Figure 1 + figure 3: exactly cell₈ survives.
	assertResults(t, datagen.PaperFigure1, datagen.PaperQuery, "<cell> A </cell>")
	// Without the author predicate, the cell also matches.
	assertResults(t, datagen.PaperFigure1, "//section//table[position]//cell", "<cell> A </cell>")
	// The inner tables (table₆, table₇) are descendants of table₅, so a
	// nested //table still reaches the cell…
	assertResults(t, datagen.PaperFigure1, "//section//table[position]//table//cell", "<cell> A </cell>")
	// …but demanding position on the inner table too kills the match.
	assertResults(t, datagen.PaperFigure1, "//section//table[position]//table[position]//cell")
}

func TestDeepRecursionCounts(t *testing.T) {
	// <a><a>...<a><b/></a>...</a></a> with n a's: //a//b matches b once per
	// outer a except the innermost is its parent... all n a's are ancestors.
	n := 10
	doc := strings.Repeat("<a>", n) + "<b/>" + strings.Repeat("</a>", n)
	got := results(t, doc, "//a//b")
	if len(got) != 1 {
		t.Fatalf("//a//b: %d results, want 1 (dedup)", len(got))
	}
	got = results(t, doc, "//a/a")
	if len(got) != n-1 {
		t.Fatalf("//a/a: %d results, want %d", len(got), n-1)
	}
}

func TestSerializeEscapes(t *testing.T) {
	d := buildStd(`<a x="q&quot;&lt;">a&amp;b<c/></a>`)
	want := `<a x="q&quot;&lt;">a&amp;b<c/></a>`
	if got := d.Root.Serialize(); got != want {
		t.Fatalf("serialize = %q, want %q", got, want)
	}
}

func TestBuildFromCustomScanner(t *testing.T) {
	doc := `<r><a id="1">t</a></r>`
	d1, err := Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(saxtest.NewStdDriver(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Root.Serialize() != d2.Root.Serialize() {
		t.Fatalf("front-ends disagree: %q vs %q", d1.Root.Serialize(), d2.Root.Serialize())
	}
}

func TestNumNodes(t *testing.T) {
	d := buildStd("<a>x<b/>y</a>")
	if d.NumNodes != 4 { // a, x, b, y
		t.Fatalf("NumNodes = %d, want 4", d.NumNodes)
	}
}

func TestAttrSeqOrdering(t *testing.T) {
	d := buildStd(`<a x="1" y="2"><b/></a>`)
	ax := d.Root.AttrNode(0)
	ay := d.Root.AttrNode(1)
	b := d.Root.Children[0]
	if !(d.Root.Seq < ax.Seq && ax.Seq < ay.Seq && ay.Seq < b.Seq) {
		t.Fatalf("seq order wrong: a=%d @x=%d @y=%d b=%d", d.Root.Seq, ax.Seq, ay.Seq, b.Seq)
	}
}

func TestEmptyResultOnKindMismatch(t *testing.T) {
	assertResults(t, "<a><b/></a>", "//b/text()")
	assertResults(t, "<a><b/></a>", "//b/@id")
	assertResults(t, "<a><b/></a>", "//c")
}
