package twigm

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/sax/saxtest"
	"repro/internal/xmlscan"
)

// checkOracle is the single-document equivalence helper for this file.
func checkOracle(t *testing.T, doc string, queries ...string) {
	t.Helper()
	d, err := dom.Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))))
	if err != nil {
		t.Fatalf("doc %q: %v", doc, err)
	}
	for _, query := range queries {
		nodes := dom.EvalString(d, query)
		want := make([]string, 0, len(nodes))
		for _, n := range nodes {
			want = append(want, n.Serialize())
		}
		for _, opts := range []Options{{}, {Ordered: true}, {DisablePrune: true}} {
			got := runQuery(t, doc, query, opts)
			if !equalStrings(got, want) {
				t.Fatalf("%s over %q (opts=%+v):\n got %q\nwant %q", query, doc, opts, got, want)
			}
		}
	}
}

// One element matching several machine nodes in the same event.
func TestSameElementMultipleMachineNodes(t *testing.T) {
	checkOracle(t, "<a><a><a/></a></a>",
		"//a/a", "//a//a", "//a/a/a", "//a[a]/a", "//a[a/a]",
		"//*[a]//a", "//*/*")
}

// Descendant-axis attributes: '//@a' means self-or-descendant.
func TestDescendantAttributeSelfOrBelow(t *testing.T) {
	doc := `<r><a id="top"><b><c id="deep"/></b></a><a/></r>`
	checkOracle(t, doc,
		"//a//@id", "//a/@id", "//a[.//@id]", "//r//@id", "//b//@id",
		"//a[@id]//@id")
}

// Wildcards with attribute predicates and outputs.
func TestWildcardAttributes(t *testing.T) {
	doc := `<r><x k="1"/><y k="2"/><z/></r>`
	checkOracle(t, doc,
		"//*[@k]", "//*[@k='2']", "//*/@k", "//*[@k>1]")
}

// text() inside predicates with each comparison operator.
func TestTextPredicateOperators(t *testing.T) {
	doc := "<r><a>5</a><a>10</a><a>x</a><a>5<b/>10</a></r>"
	checkOracle(t, doc,
		"//a[text()=5]", "//a[text()!=5]", "//a[text()<6]", "//a[text()>=10]",
		"//a[text()='x']", "//a[text()]")
}

// String-value semantics vs text-node semantics must diverge correctly.
func TestStringValueVsTextNode(t *testing.T) {
	doc := "<r><a>5<b/>1</a></r>"
	// string-value of a = "51"; text nodes are "5" and "1".
	checkOracle(t, doc,
		"//a[.=51]", "//a[.='51']", "//a[text()='51']", "//a[text()='5']",
		"//a[.>50]", "//a[text()<2]")
}

// Deferred element comparisons interacting with structure flags.
func TestElementComparisonWithStructure(t *testing.T) {
	doc := "<r><p><price>10</price><tag/></p><p><price>99</price><tag/></p><p><price>10</price></p></r>"
	checkOracle(t, doc,
		"//p[price=10 and tag]", "//p[price=10][tag]", "//p[tag]/price",
		"//p[price=10]/tag", "//p[price<50 and tag]")
}

// Nested predicates three levels deep.
func TestDeeplyNestedPredicates(t *testing.T) {
	doc := "<r><a><b><c><d/></c></b></a><a><b><c/></b></a></r>"
	checkOracle(t, doc,
		"//a[b[c[d]]]", "//a[b/c/d]", "//a[b[c]/c]", "//a[.//d]")
}

// Multiple entries in the output node's own stack (nested output matches)
// with pending predicates resolving in different orders.
func TestNestedOutputCandidates(t *testing.T) {
	doc := "<r><a><x/><a><a><x/></a></a></a></r>"
	checkOracle(t, doc, "//a[x]", "//a[a]", "//a[x or a]")
	doc2 := "<t><s><s><s><q/></s></s><m/></s></t>"
	checkOracle(t, doc2, "//s[m]//q", "//s[m]//s", "//s//s[q]")
}

// Predicate arriving between nested candidates: the outer candidate
// confirms while the inner is still pending.
func TestInterleavedConfirmation(t *testing.T) {
	doc := "<r><a><b>outer</b><p/><a><b>inner</b></a></a></r>"
	checkOracle(t, doc, "//a[p]/b", "//a[p]//b")
}

// 64-branch predicate: the widest supported machine node.
func TestMaxWidthPredicate(t *testing.T) {
	var q strings.Builder
	q.WriteString("//a")
	var doc strings.Builder
	doc.WriteString("<r><a>")
	// 63 predicate children + implicit next = at the 64 limit when an
	// output chain is added; keep to 63 total here.
	for i := 0; i < 63; i++ {
		q.WriteString("[c")
		q.WriteString(strings.Repeat("x", i%3)) // c, cx, cxx cycling
		q.WriteString("]")
	}
	// Build matching children: names c, cx, cxx.
	for _, name := range []string{"c", "cx", "cxx"} {
		doc.WriteString("<" + name + "/>")
	}
	doc.WriteString("</a></r>")
	checkOracle(t, doc.String(), q.String())
}

// The empty-ish documents and smallest queries.
func TestMinimalDocuments(t *testing.T) {
	checkOracle(t, "<a/>", "/a", "//a", "/b", "//*", "/a/text()", "/a/@x")
	checkOracle(t, "<a></a>", "/a")
	checkOracle(t, "<a>  </a>", "/a/text()", "//a[text()]")
}

// Whitespace is significant in text nodes and string-values.
func TestWhitespaceSignificance(t *testing.T) {
	doc := "<r><a> x </a><a>x</a></r>"
	checkOracle(t, doc, "//a[.='x']", "//a[.=' x ']", "//a[text()=' x ']")
}

// Numeric comparisons with whitespace-padded values (TrimSpace coercion).
func TestNumericWhitespaceCoercion(t *testing.T) {
	doc := "<r><a> 5 </a><a>5.0</a><a>05</a></r>"
	checkOracle(t, doc, "//a[.=5]", "//a[.<6]", "//a[.>4]")
}

// CountOnly + Ordered composition.
func TestCountOnlyOrdered(t *testing.T) {
	prog := MustCompile("//a[p]/b")
	doc := "<r><a><b/><b/><p/></a></r>"
	results, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))),
		Options{CountOnly: true, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Seq != 0 || results[1].Seq != 1 {
		t.Fatalf("results: %+v", results)
	}
	if stats.PeakBufferedBytes != 0 {
		t.Fatal("count-only must not buffer")
	}
}

// Attributes and text on the same elements as predicates and outputs.
func TestMixedAttrTextOutputs(t *testing.T) {
	doc := `<r><u id="1">alice</u><u id="2">bob</u><u>carol</u></r>`
	checkOracle(t, doc,
		"//u[@id]/text()", "//u[text()='bob']/@id", "//u[@id='1' and text()='alice']",
		"//u[@id or text()='carol']")
}

// Deep chains where only a prefix of the query can ever match.
func TestUnmatchablePrefixes(t *testing.T) {
	doc := "<r><a><b/></a></r>"
	checkOracle(t, doc, "//a/b/c/d/e", "//z//a//b", "//a[z]/b", "/z/a")
}

// Self-comparison on the output node (confirmation at pop).
func TestSelfComparisonOnOutput(t *testing.T) {
	doc := "<r><a>yes</a><a>no</a></r>"
	checkOracle(t, doc, "//a[.='yes']", "//r/a[.='no']")
}

// Value predicates on ancestors of the output, resolving after the
// candidate closed (recorder finalized before confirmation).
func TestLateAncestorComparison(t *testing.T) {
	doc := "<r><g><item>keep</item><score>9</score></g><g><item>drop</item><score>2</score></g></r>"
	checkOracle(t, doc, "//g[score>5]/item", "//g[score>5]/item/text()")
}
