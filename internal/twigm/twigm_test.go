package twigm

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/sax/saxtest"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// runQuery evaluates query over doc with the given options and returns the
// result values in document order.
func runQuery(t *testing.T, doc, query string, opts Options) []string {
	t.Helper()
	prog := MustCompile(query)
	results, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), opts)
	if err != nil {
		t.Fatalf("%s over %q: %v", query, doc, err)
	}
	return Values(results)
}

// oracle evaluates via the DOM evaluator.
func oracle(t *testing.T, doc, query string) []string {
	t.Helper()
	d, err := dom.Build(saxtest.NewStdDriver(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("dom build: %v", err)
	}
	nodes := dom.EvalString(d, query)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Serialize())
	}
	return out
}

// assertAgainstOracle checks TwigM output (all option combinations) equals
// the DOM oracle's.
func assertAgainstOracle(t *testing.T, doc, query string) {
	t.Helper()
	want := oracle(t, doc, query)
	for _, opts := range []Options{
		{},
		{Ordered: true},
		{DisablePrune: true},
		{DisableEagerPropagation: true},
		{DisablePrune: true, DisableEagerPropagation: true, Ordered: true},
	} {
		got := runQuery(t, doc, query, opts)
		if !equalStrings(got, want) {
			t.Fatalf("%s over %q (opts %+v):\n got %q\nwant %q", query, doc, opts, got, want)
		}
	}
}

func equalStrings(a, b []string) bool {
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

func TestPaperWorkedExample(t *testing.T) {
	// Figure 1 document, figure 3 machine: the nine pattern matches of
	// cell₈ collapse to one solution through ⟨section₂, table₅, cell₈⟩.
	got := runQuery(t, datagen.PaperFigure1, datagen.PaperQuery, Options{})
	if len(got) != 1 || got[0] != "<cell> A </cell>" {
		t.Fatalf("paper example: got %q", got)
	}
	assertAgainstOracle(t, datagen.PaperFigure1, datagen.PaperQuery)
}

func TestPaperExamplePredicateVariants(t *testing.T) {
	for _, q := range []string{
		"//section//table//cell",
		"//section[author]//table//cell",
		"//section//table[position]//cell",
		"//section[author]//table[position]//cell",
		"//section[author]//table[position]//table[position]//cell",
		"//section[author and position]//table//cell", // no section has both
		"//table[position]",
		"//table[cell]",
		"//section[table]",
		"//book//position",
	} {
		assertAgainstOracle(t, datagen.PaperFigure1, q)
	}
}

func TestChildVsDescendant(t *testing.T) {
	doc := "<a><b><a><c/></a></b><c/></a>"
	for _, q := range []string{"/a/c", "//a/c", "//a//c", "/a//c", "//b//c", "//b/c"} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestRecursiveSelfNesting(t *testing.T) {
	doc := "<a><a><a><b/></a></a></a>"
	for _, q := range []string{"//a//a", "//a/a", "//a//b", "//a/a/a", "//a[b]", "//a//a[b]", "//a[a]"} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestWildcards(t *testing.T) {
	doc := `<r><a><x/></a><b><x/><y/></b></r>`
	for _, q := range []string{"//*", "/r/*", "//*[x]", "//*/x", "/*/*", "//*[x and y]"} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestAttributes(t *testing.T) {
	doc := `<r><a id="1" x="p"><b id="2"/></a><a/><a id="3"/></r>`
	for _, q := range []string{
		"//a/@id", "//a//@id", "//a[@id]", "//a[@id='1']", "//a[@id='1']/b/@id",
		"//a[@id and @x]", "//a[@id or @x]", "//@id", "//a[@id!='1']",
		"//a[@id>1]", "//a[@id>=1]", "//a[@id<3]",
	} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestTextNodes(t *testing.T) {
	doc := "<r><a>x<b>inner</b>y</a><a>z</a><a/></r>"
	for _, q := range []string{
		"//a/text()", "//a//text()", "//a[text()]", "//a[text()='x']",
		"//a[text()='z']", "//r//text()", "//b/text()",
	} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestValuePredicates(t *testing.T) {
	doc := "<r><p><price>10</price><name>ape</name></p><p><price>30</price><name>bee</name></p></r>"
	for _, q := range []string{
		"//p[price=10]", "//p[price<20]", "//p[price>20]", "//p[price>=10]",
		"//p[price<=10]", "//p[price!=10]", "//p[name='ape']", "//p[name!='ape']",
		"//p[price<20 and name='ape']", "//p[price<20 or name='bee']",
		"//p[price<20]/name", "//p[name='bee']/price",
	} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestSelfComparison(t *testing.T) {
	doc := "<r><a>x</a><a>y<b>q</b>z</a></r>"
	for _, q := range []string{"//a[.='x']", "//a[.='yqz']", "//a[. = 'nope']", "//b[.='q']"} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestNestedPredicates(t *testing.T) {
	doc := "<r><a><b><c/></b></a><a><b/></a><a><d><b><c/></b></d></a></r>"
	for _, q := range []string{
		"//a[b/c]", "//a[b[c]]", "//a[.//c]", "//a[.//b/c]", "//a[d/b[c]]",
		"//a[b/c or d]", "//a[(b or d) and .//c]",
	} {
		assertAgainstOracle(t, doc, q)
	}
}

// The predicate arrives after the candidate in document order: predicates
// resolving late must still confirm earlier candidates (the paper's central
// challenge).
func TestLateArrivingPredicate(t *testing.T) {
	doc := "<r><a><c>hit</c><p/></a><a><c>miss</c></a></r>"
	assertAgainstOracle(t, doc, "//a[p]/c")
	// Late predicate two levels up.
	doc2 := "<r><s><t><c>x</c></t><auth/></s></r>"
	assertAgainstOracle(t, doc2, "//s[auth]//t//c")
}

// A candidate must survive the failure of an inner pattern match when an
// outer one still qualifies (paper example: table₆/table₇ fail, table₅
// wins). Exercises the all-compatible-entries fan-out.
func TestInnerMatchFailsOuterWins(t *testing.T) {
	doc := "<r><t><t><t><c/></t></t><p/></t></r>"
	assertAgainstOracle(t, doc, "//t[p]//c")
	// And the reverse: inner wins while outer fails.
	doc2 := "<r><t><t><c/><p/></t></t></r>"
	assertAgainstOracle(t, doc2, "//t[p]//c")
}

// Child-axis spine with predicate: a candidate confirmed via one chain must
// not leak through an unrelated chain (the relay-unsoundness regression).
func TestChildAxisNoCrossChainLeak(t *testing.T) {
	// a1 has p and a real chain b1/c1. a2 (no p) has chain b2/c2.
	// Solutions: only c1.
	doc := "<a><p/><b><c/></b><a><b><c><z/></c></b></a></a>"
	want := oracle(t, doc, "//a[p]/b/c")
	if len(want) != 1 || want[0] != "<c/>" {
		t.Fatalf("oracle sanity: %q", want)
	}
	assertAgainstOracle(t, doc, "//a[p]/b/c")
}

func TestMixedAxesDeep(t *testing.T) {
	doc := "<r><a><x><b><y><c/></y></b></x></a><a><b><c/></b></a></r>"
	for _, q := range []string{
		"//a//b//c", "//a/b/c", "//a//b/c", "//a/b//c",
		"//a[.//c]//b", "//a//b[y]//c", "//a//b[y/c]",
	} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestRootEdgeCases(t *testing.T) {
	doc := `<a id="r">x<b id="i">y</b></a>`
	for _, q := range []string{
		"/a", "/b", "//a", "/a/@id", "//@id", "//text()", "/a/text()",
		"/*", "//*",
	} {
		assertAgainstOracle(t, doc, q)
	}
}

func TestCountOnlyMode(t *testing.T) {
	prog := MustCompile("//a")
	doc := "<r><a/><a><a/></a></r>"
	results, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("count-only results = %d, want 3", len(results))
	}
	for _, res := range results {
		if res.Value != "" {
			t.Fatalf("count-only result has value %q", res.Value)
		}
	}
	if stats.PeakBufferedBytes != 0 {
		t.Fatalf("count-only buffered %d bytes", stats.PeakBufferedBytes)
	}
}

func TestOrderedDelivery(t *testing.T) {
	// First candidate (outer a) confirms later than the second (inner b
	// closes first)... construct: //a[p]/b where outer's p arrives last.
	doc := "<r><a><b>one</b><b>two</b><p/></a></r>"
	prog := MustCompile("//a[p]/b")
	var seqs []int64
	_, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())),
		Options{Ordered: true, EmitFrom: func(_ int, res Result) error {
			seqs = append(seqs, res.Seq)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("ordered seqs = %v", seqs)
	}
}

func TestIncrementalConfirmation(t *testing.T) {
	// With predicates satisfied before the candidate opens, confirmation
	// happens at the candidate's start event, long before end of stream
	// (§1 requirement 2).
	doc := "<r><a><p/><b>x</b></a>" + strings.Repeat("<pad/>", 100) + "</r>"
	prog := MustCompile("//a[p]/b")
	results, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	if results[0].ConfirmedAt >= stats.Events/2 {
		t.Fatalf("confirmation not incremental: at event %d of %d", results[0].ConfirmedAt, stats.Events)
	}
	if results[0].DeliveredAt >= stats.Events/2 {
		t.Fatalf("delivery not incremental: at event %d of %d", results[0].DeliveredAt, stats.Events)
	}
}

func TestEagerAblationDelaysButPreserves(t *testing.T) {
	doc := "<r><a><p/><b>x</b></a></r>"
	prog := MustCompile("//a[p]/b")
	run := func(opts Options) Result {
		results, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), opts)
		if err != nil || len(results) != 1 {
			t.Fatalf("results=%v err=%v", results, err)
		}
		return results[0]
	}
	eager := run(Options{})
	lazy := run(Options{DisableEagerPropagation: true})
	if eager.Value != lazy.Value {
		t.Fatalf("ablation changed result: %q vs %q", eager.Value, lazy.Value)
	}
	if lazy.ConfirmedAt <= eager.ConfirmedAt {
		t.Fatalf("lazy confirmation (%d) should be later than eager (%d)", lazy.ConfirmedAt, eager.ConfirmedAt)
	}
}

func TestPruneStats(t *testing.T) {
	doc := `<r><a id="no"/><a id="yes"/><a/></r>`
	prog := MustCompile("//a[@id='yes']")
	_, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedPushes != 2 { // id="no" and missing id
		t.Fatalf("pruned = %d, want 2", stats.PrunedPushes)
	}
	_, stats2, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{DisablePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.PrunedPushes != 0 || stats2.Pushes <= stats.Pushes {
		t.Fatalf("prune-disabled pushes = %d (pruned run %d)", stats2.Pushes, stats.Pushes)
	}
}

func TestEmitErrorAborts(t *testing.T) {
	prog := MustCompile("//a")
	doc := "<r><a/><a/></r>"
	n := 0
	_, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())),
		Options{EmitFrom: func(int, Result) error {
			n++
			return &CompileError{Msg: "stop now"}
		}})
	if err == nil || !strings.Contains(err.Error(), "stop now") {
		t.Fatalf("err = %v", err)
	}
	if n != 1 {
		t.Fatalf("emit called %d times after error", n)
	}
}

func TestExactlyOnceOnFanOut(t *testing.T) {
	// b is a descendant of three nested a's; all three root entries are
	// satisfied — b must be emitted once.
	doc := "<a><a><a><b/></a></a></a>"
	got := runQuery(t, doc, "//a//b", Options{})
	if len(got) != 1 {
		t.Fatalf("fan-out duplicated result: %v", got)
	}
	// And with predicates on all levels.
	doc2 := "<a><p/><a><p/><a><p/><b/></a></a></a>"
	got2 := runQuery(t, doc2, "//a[p]//b", Options{})
	if len(got2) != 1 {
		t.Fatalf("predicated fan-out duplicated result: %v", got2)
	}
}

func TestFragmentSerializationMatchesOracle(t *testing.T) {
	doc := `<r><a x="1 &amp; 2"><b>t&lt;u</b><c/>tail</a></r>`
	assertAgainstOracle(t, doc, "//a")
	assertAgainstOracle(t, doc, "//a/b")
	assertAgainstOracle(t, doc, "//a/c")
}

func TestStatsSanity(t *testing.T) {
	prog := MustCompile(datagen.PaperQuery)
	_, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(datagen.PaperFigure1), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushes != stats.Pops {
		t.Fatalf("pushes %d != pops %d", stats.Pushes, stats.Pops)
	}
	if stats.CandidatesCreated != stats.CandidatesEmitted+stats.CandidatesDropped {
		t.Fatalf("candidate accounting: created %d, emitted %d, dropped %d",
			stats.CandidatesCreated, stats.CandidatesEmitted, stats.CandidatesDropped)
	}
	if stats.MaxDepth != 8 {
		t.Fatalf("max depth = %d, want 8", stats.MaxDepth)
	}
	if stats.CandidatesCreated != 1 { // only cell₈
		t.Fatalf("candidates created = %d, want 1", stats.CandidatesCreated)
	}
}

func TestBuilderLinear(t *testing.T) {
	// NumNodes equals query size for a spectrum of queries.
	for _, q := range []string{"//a", "//a/b/c", "//a[b][c]//d[e/f]", datagen.PaperQuery} {
		parsed := xpath.MustParse(q)
		prog, err := Compile(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if prog.NumNodes() != parsed.Size() {
			t.Fatalf("%s: machine nodes %d != query size %d", q, prog.NumNodes(), parsed.Size())
		}
	}
}

func TestDescribe(t *testing.T) {
	prog := MustCompile(datagen.PaperQuery)
	desc := prog.Describe()
	for _, want := range []string{"=section", "-author", "=table", "-position", "=cell *"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe() missing %q:\n%s", want, desc)
		}
	}
}

func TestTooManyPredicateBranches(t *testing.T) {
	var b strings.Builder
	b.WriteString("//a")
	for i := 0; i < 70; i++ {
		b.WriteString("[x]")
	}
	q, err := xpath.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q); err == nil {
		t.Fatal("expected CompileError for >64 branches")
	}
}

func TestReusableProgram(t *testing.T) {
	prog := MustCompile("//a")
	for i := 0; i < 3; i++ {
		results, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader("<r><a/></r>"), prog.Symbols())), Options{})
		if err != nil || len(results) != 1 {
			t.Fatalf("iteration %d: results=%v err=%v", i, results, err)
		}
	}
}

func TestStdDriverFrontEnd(t *testing.T) {
	prog := MustCompile("//a[b]/c")
	doc := "<r><a><b/><c>k</c></a></r>"
	r1, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Collect(prog, saxtest.NewStdDriverWith(strings.NewReader(doc), prog.Symbols()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(Values(r1), Values(r2)) {
		t.Fatalf("front-ends disagree: %v vs %v", Values(r1), Values(r2))
	}
}

func TestDeepRecursionStability(t *testing.T) {
	// 500 nested a's: quadratic flag propagation but no blowup, no
	// duplicate results.
	const n = 500
	doc := strings.Repeat("<a>", n) + "<b/>" + strings.Repeat("</a>", n)
	got := runQuery(t, doc, "//a//a//b", Options{})
	if len(got) != 1 {
		t.Fatalf("results = %d, want 1", len(got))
	}
}

func TestMemoryBoundedOnWideDocument(t *testing.T) {
	// Many sequential elements: the recorder buffer must reset between
	// results, keeping the high-water mark at a single fragment.
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 1000; i++ {
		b.WriteString("<a><x>payload</x></a>")
	}
	b.WriteString("</r>")
	prog := MustCompile("//a")
	_, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(b.String()), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakBufferedBytes > 100 {
		t.Fatalf("recorder high-water %d bytes; buffer is not resetting", stats.PeakBufferedBytes)
	}
}
