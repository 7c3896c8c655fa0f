package naive

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/sax/saxtest"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

func run(t *testing.T, doc, query string, opts Options) ([]Result, Stats) {
	t.Helper()
	eng := MustCompile(query)
	results, stats, err := Collect(eng, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), opts)
	if err != nil {
		t.Fatalf("%s over %q: %v", query, doc, err)
	}
	return results, stats
}

func values(results []Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}

func assertOracle(t *testing.T, doc, query string) {
	t.Helper()
	d, err := dom.Build(saxtest.NewStdDriver(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("dom build: %v", err)
	}
	nodes := dom.EvalString(d, query)
	want := make([]string, 0, len(nodes))
	for _, n := range nodes {
		want = append(want, n.Serialize())
	}
	results, _ := run(t, doc, query, Options{})
	got := values(results)
	if len(got) != len(want) {
		t.Fatalf("%s over %q:\n got %q\nwant %q", query, doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s over %q: result %d = %q, want %q", query, doc, i, got[i], want[i])
		}
	}
}

func TestPaperExample(t *testing.T) {
	assertOracle(t, datagen.PaperFigure1, datagen.PaperQuery)
}

func TestBasicPaths(t *testing.T) {
	doc := "<a><b><c/></b><c/><a><c/></a></a>"
	for _, q := range []string{"/a", "//c", "/a/c", "//a/c", "//a//c", "//b/c", "/a/a/c"} {
		assertOracle(t, doc, q)
	}
}

func TestPredicates(t *testing.T) {
	doc := `<r><a id="1"><b/><p>5</p></a><a><b/></a><a><p>9</p></a></r>`
	for _, q := range []string{
		"//a[b]", "//a[p]", "//a[b and p]", "//a[@id]", "//a[@id='1']",
		"//a[p=5]", "//a[p>6]", "//a[p<6]/b", "//a[b]/p",
	} {
		assertOracle(t, doc, q)
	}
}

func TestSelfAndTextPredicates(t *testing.T) {
	doc := "<r><a>x</a><a>y</a><a>x<b/>z</a></r>"
	for _, q := range []string{"//a[.='x']", "//a[text()='x']", "//a[.='xz']", "//a/text()"} {
		assertOracle(t, doc, q)
	}
}

func TestAttributeOutputs(t *testing.T) {
	doc := `<r><a id="1"/><a/><b id="2"><a id="3"/></b></r>`
	for _, q := range []string{"//a/@id", "//@id", "//b//@id", "//b/a/@id"} {
		assertOracle(t, doc, q)
	}
}

func TestWildcard(t *testing.T) {
	doc := "<r><a><x/></a><b><x/></b></r>"
	for _, q := range []string{"//*[x]", "/r/*", "//*"} {
		assertOracle(t, doc, q)
	}
}

// The paper's figure-1 walkthrough: 9 pattern matches of the spine exist for
// cell₈ when line 8 is processed; the naive engine materializes them all.
func TestExplicitMatchEnumeration(t *testing.T) {
	_, stats := run(t, datagen.PaperFigure1, "//section//table//cell", Options{})
	// Spine embeddings: 3 sections × 3 tables nested below... table₅,₆,₇
	// under each of section₂,₃,₄ plus partial prefixes; at minimum the 9
	// full embeddings of the paper must have been created.
	if stats.MatchesCreated < 9 {
		t.Fatalf("MatchesCreated = %d, want >= 9", stats.MatchesCreated)
	}
}

// Exponential growth in query size on recursive data — the motivation's
// blowup, kept tiny here.
func TestExponentialGrowth(t *testing.T) {
	depth := 8
	doc := strings.Repeat("<a>", depth) + "<b/>" + strings.Repeat("</a>", depth)
	grow := func(q string) int {
		_, stats := run(t, doc, q, Options{})
		return stats.PeakMatches
	}
	p1 := grow("//a//b")
	p2 := grow("//a//a//b")
	p3 := grow("//a//a//a//b")
	if !(p1 < p2 && p2 < p3) {
		t.Fatalf("peaks not growing: %d %d %d", p1, p2, p3)
	}
	// //a//a//a on depth-8 recursion: C(8,3)=56 spine embeddings at
	// least; peak must reflect the combinatorics, not linear growth.
	if p3 < 56 {
		t.Fatalf("p3 = %d, want >= 56 (C(8,3) embeddings)", p3)
	}
}

func TestMatchLimit(t *testing.T) {
	depth := 16
	doc := strings.Repeat("<a>", depth) + "<b/>" + strings.Repeat("</a>", depth)
	eng := MustCompile("//a//a//a//a//b")
	_, _, err := Collect(eng, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), Options{MaxMatches: 500})
	if !errors.Is(err, ErrMatchLimit) {
		t.Fatalf("err = %v, want ErrMatchLimit", err)
	}
}

func TestOrRejected(t *testing.T) {
	q := xpath.MustParse("//a[b or c]")
	if _, err := Compile(q); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestNoDuplicateSolutions(t *testing.T) {
	doc := "<a><a><a><b/></a></a></a>"
	results, _ := run(t, doc, "//a//b", Options{})
	if len(results) != 1 {
		t.Fatalf("results = %v, want 1", values(results))
	}
}

func TestLatePredicateConfirms(t *testing.T) {
	doc := "<r><a><c>hit</c><p/></a><a><c>miss</c></a></r>"
	assertOracle(t, doc, "//a[p]/c")
}

func TestFragmentSerialization(t *testing.T) {
	doc := `<r><a x="1"><b>t&amp;u</b><c/></a></r>`
	assertOracle(t, doc, "//a")
}

func TestStatsAccounting(t *testing.T) {
	_, stats := run(t, datagen.PaperFigure1, datagen.PaperQuery, Options{})
	if stats.Solutions != 1 {
		t.Fatalf("solutions = %d", stats.Solutions)
	}
	if stats.MatchesCreated == 0 || stats.PeakMatches == 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
}
