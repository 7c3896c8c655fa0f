// Package integration cross-checks the three engines — TwigM (the paper's
// contribution), the naive match-enumeration baseline, and the DOM oracle —
// on randomized workloads. Any semantic drift between the streaming engines
// and the random-access oracle is a correctness bug by definition (§1 of the
// paper: streaming evaluation must return exactly what non-streaming
// evaluation returns).
package integration

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/naive"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// oracleResults evaluates via DOM and returns serialized results in
// document order.
func oracleResults(t *testing.T, doc string, q *xpath.Query) []string {
	t.Helper()
	d, err := dom.Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))))
	if err != nil {
		t.Fatalf("dom build: %v", err)
	}
	nodes := dom.Eval(d, q)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Serialize())
	}
	return out
}

func twigmResults(t *testing.T, doc string, q *xpath.Query, opts twigm.Options) []string {
	t.Helper()
	prog, err := twigm.Compile(q)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	results, _, err := twigm.Collect(prog, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), opts)
	if err != nil {
		t.Fatalf("twigm %s: %v", q, err)
	}
	return twigm.Values(results)
}

func naiveResults(t *testing.T, doc string, q *xpath.Query) ([]string, bool) {
	t.Helper()
	eng, err := naive.Compile(q)
	if errors.Is(err, naive.ErrUnsupported) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("naive compile %s: %v", q, err)
	}
	results, _, err := naive.Collect(eng, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), naive.Options{MaxMatches: 2_000_000})
	if err != nil {
		t.Fatalf("naive %s: %v", q, err)
	}
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, true
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEnginesAgreeOnRandomWorkloads is the central property test: 400
// random (document, query) pairs; every engine and option combination must
// agree with the oracle.
func TestEnginesAgreeOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(20260613))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for i := 0; i < trials; i++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		conj := i%2 == 0
		src := datagen.RandomQuery(rng, datagen.DefaultRandomTree, conj)
		q, err := xpath.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated query %q does not parse: %v", i, src, err)
		}
		want := oracleResults(t, doc, q)
		for _, opts := range []twigm.Options{
			{},
			{Ordered: true},
			{DisablePrune: true, DisableEagerPropagation: true},
		} {
			got := twigmResults(t, doc, q, opts)
			if !equal(got, want) {
				t.Fatalf("trial %d: twigm(%+v) disagrees with oracle\nquery: %s\ndoc: %s\n got: %q\nwant: %q",
					i, opts, src, doc, got, want)
			}
		}
		if got, ok := naiveResults(t, doc, q); ok && !equal(got, want) {
			t.Fatalf("trial %d: naive disagrees with oracle\nquery: %s\ndoc: %s\n got: %q\nwant: %q",
				i, src, doc, got, want)
		}
	}
}

// TestFrontEndsAgree feeds the same random documents through the scanner and
// saxtest's encoding/xml reference front-end; the event streams must be
// identical.
func TestFrontEndsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 300
	if testing.Short() {
		trials = 50
	}
	syms := differentialSymbols()
	for i := 0; i < trials; i++ {
		assertSameEvents(t, fmt.Sprintf("trial %d", i), datagen.DefaultRandomTree.Generate(rng), syms)
	}
}

// TestDeepRecursionAgainstOracle stresses the compact encoding where the
// pattern-match count explodes: chains //a//a…//b over deeply nested a's.
func TestDeepRecursionAgainstOracle(t *testing.T) {
	for depth := 1; depth <= 10; depth++ {
		doc := datagen.RecursiveChain(depth)
		for k := 1; k <= 4; k++ {
			q := xpath.MustParse(datagen.ChainQuery(k))
			want := oracleResults(t, doc, q)
			got := twigmResults(t, doc, q, twigm.Options{})
			if !equal(got, want) {
				t.Fatalf("depth %d, k %d: twigm %q, oracle %q", depth, k, got, want)
			}
		}
	}
}

// TestBookWorkloadsAgainstOracle checks the E5 workload family end to end.
func TestBookWorkloadsAgainstOracle(t *testing.T) {
	shapes := []datagen.Book{
		datagen.Figure1Shape,
		{SectionDepth: 4, TableDepth: 4, Repeat: 3, AuthorEvery: 2, PositionEvery: 2},
		{SectionDepth: 2, TableDepth: 5, Repeat: 4, AuthorEvery: 1, PositionEvery: 3},
		{SectionDepth: 5, TableDepth: 2, Repeat: 2, AuthorEvery: 0, PositionEvery: 1},
	}
	queries := []string{
		datagen.PaperQuery,
		"//section//table//cell",
		"//section[author]//table//cell",
		"//section//table[position]//cell",
		"//table[position and cell]",
		"//section[.//position]//cell",
	}
	for si, shape := range shapes {
		doc := shape.String()
		for _, src := range queries {
			q := xpath.MustParse(src)
			want := oracleResults(t, doc, q)
			got := twigmResults(t, doc, q, twigm.Options{Ordered: true})
			if !equal(got, want) {
				t.Fatalf("shape %d, query %s:\n got %q\nwant %q", si, src, got, want)
			}
			if ngot, ok := naiveResults(t, doc, q); ok && !equal(ngot, want) {
				t.Fatalf("shape %d, query %s: naive\n got %q\nwant %q", si, src, ngot, want)
			}
		}
	}
}

// TestProteinQueryAgainstOracle pins the paper's own query on a small
// protein corpus: result count must equal the generator's accounting and
// the oracle's results.
func TestProteinQueryAgainstOracle(t *testing.T) {
	p := datagen.Protein{TargetBytes: 300 << 10, Seed: 11}
	doc := p.String()
	entries, withRef := p.Counts()
	q := xpath.MustParse(datagen.PaperProteinQuery)
	want := oracleResults(t, doc, q)
	if len(want) != withRef {
		t.Fatalf("oracle found %d ids, generator says %d of %d entries have references",
			len(want), withRef, entries)
	}
	got := twigmResults(t, doc, q, twigm.Options{})
	if !equal(got, want) {
		t.Fatalf("twigm %d results, oracle %d", len(got), len(want))
	}
	// Every id is distinct and PIR-shaped.
	seen := map[string]bool{}
	for _, id := range got {
		if !strings.HasPrefix(id, "PIR") || seen[id] {
			t.Fatalf("bad or duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestTickerIncremental verifies results stream out while the ticker is
// still in flight (§1 requirement 2), and match the oracle.
func TestTickerIncremental(t *testing.T) {
	doc := datagen.Ticker{Trades: 300, Seed: 4}.String()
	q := xpath.MustParse("//trade[symbol='ACME']/price")
	want := oracleResults(t, doc, q)
	prog, err := twigm.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := twigm.Collect(prog, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), twigm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || len(results) != len(want) {
		t.Fatalf("got %d results, oracle %d", len(results), len(want))
	}
	// The first delivery must happen in the first tenth of the stream.
	if results[0].DeliveredAt > stats.Events/10 {
		t.Fatalf("first delivery at event %d of %d: not incremental", results[0].DeliveredAt, stats.Events)
	}
}

// TestNaiveExplodesTwigMDoesNot is the E5 contrast as a test: on a deep
// chain, the naive engine hits its match limit while TwigM completes.
func TestNaiveExplodesTwigMDoesNot(t *testing.T) {
	doc := datagen.RecursiveChain(18)
	src := datagen.ChainQuery(5)
	q := xpath.MustParse(src)

	eng, err := naive.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = naive.Collect(eng, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), naive.Options{MaxMatches: 5000})
	if !errors.Is(err, naive.ErrMatchLimit) {
		t.Fatalf("naive err = %v, want ErrMatchLimit", err)
	}

	prog, err := twigm.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := twigm.Collect(prog, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), twigm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("twigm results = %d, want 1", len(results))
	}
	if stats.PeakStackEntries > 18*6 {
		t.Fatalf("twigm peak entries %d — not polynomial-compact", stats.PeakStackEntries)
	}
}

// TestMalformedInputFailsCleanly runs the full pipeline on broken XML: a
// typed error, no panic, no partial-result corruption.
func TestMalformedInputFailsCleanly(t *testing.T) {
	docs := []string{
		"<a><b></a>",
		"<a>",
		"text only",
		"<a/><b/>",
		"<a attr=nope/>",
		"",
	}
	prog := twigm.MustCompile("//a")
	for _, doc := range docs {
		_, _, err := twigm.Collect(prog, saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))), twigm.Options{})
		if err == nil {
			t.Fatalf("no error for malformed %q", doc)
		}
	}
}
