package twigm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

func mustParse(t *testing.T, src string) *xpath.Query {
	t.Helper()
	q, err := xpath.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func TestPrefixProfile(t *testing.T) {
	cases := []struct {
		src     string
		profile string // ProfileString of the expected shareable prefix
	}{
		{"//a/b/c", "//a/b"},
		{"//a//b//c", "//a//b"},
		{"/a/b", "/a"},
		{"//a", ""},                    // single step: output stays residual
		{"//a[x]/b", ""},               // predicate on the first step
		{"//a/b[x]/c", "//a"},          // sharing stops at the predicate
		{"//a/b/@id", "//a/b"},         // attribute output
		{"//a/text()", "//a"},          // text output
		{"//*/b/c", "//*/b"},           // wildcards are structural
		{"//a/b[.='v']", "//a"},        // self-comparison is per-query
		{"//p:a/b/c", "//p:a/b"},       // prefixed tests share
		{"//a/b/c[@k='1']/d", "//a/b"}, // nested predicate stops sharing
		{"//section//table//cell", "//section//table"},
	}
	for _, tc := range cases {
		syms := sax.NewSymbols()
		got := ProfileString(PrefixProfile(mustParse(t, tc.src), syms))
		if got != tc.profile {
			t.Errorf("PrefixProfile(%q) = %q, want %q", tc.src, got, tc.profile)
		}
	}
}

func TestTrieGraftPrune(t *testing.T) {
	syms := sax.NewSymbols()
	profile := func(src string) []TrieStep {
		return PrefixProfile(mustParse(t, src), syms)
	}
	t0 := new(Trie)
	t1, a1 := t0.Graft(profile("//a/b/c"))
	if a1 < 0 || t1.Live() != 2 {
		t.Fatalf("graft 1: anchor %d live %d", a1, t1.Live())
	}
	// Overlapping prefix: only the divergent step is new.
	t2, a2 := t1.Graft(profile("//a/b/d"))
	if t2.Live() != 2 || a2 != a1 {
		t.Fatalf("graft 2: live %d anchors %d vs %d (prefix //a/b should be shared)", t2.Live(), a2, a1)
	}
	// '//a//x/y' shares the '//a' root with '//a/b/...' and adds one node.
	t3, a3 := t2.Graft(profile("//a//x/y"))
	if t3.Live() != 3 || a3 == a1 {
		t.Fatalf("graft 3: live %d anchor %d", t3.Live(), a3)
	}
	// Older tries are unchanged (copy-on-write).
	if t1.Live() != 2 || t0.Live() != 0 {
		t.Fatalf("older tries mutated: t0 %d t1 %d", t0.Live(), t1.Live())
	}
	// Prune one of the two //a/b users: nodes survive on the other's refs.
	t4 := t3.Prune(a2)
	if t4.Live() != 3 || t4.Garbage() != 0 {
		t.Fatalf("prune shared: live %d garbage %d", t4.Live(), t4.Garbage())
	}
	// Prune the last '//a/b' user: b dies, the root survives on //a//x.
	t5 := t4.Prune(a1)
	if t5.Live() != 2 || t5.Garbage() != 1 {
		t.Fatalf("prune last: live %d garbage %d", t5.Live(), t5.Garbage())
	}
	t6 := t5.Prune(a3)
	if t6.Live() != 0 || t6.Garbage() != 3 {
		t.Fatalf("prune all: live %d garbage %d", t6.Live(), t6.Garbage())
	}
	// Empty profile: no-op graft.
	t7, a7 := t6.Graft(nil)
	if t7 != t6 || a7 != -1 {
		t.Fatalf("empty graft: %p vs %p anchor %d", t7, t6, a7)
	}
}

// runEngineStyle evaluates one program over doc the way the engine's
// routed session would: the event clock pinned per event via HandleRouted,
// text events delivered only while the machine wants them (the engine's
// WantsText gate — part of the observable Seq trajectory, because delivered
// text can create candidates that drop), a Recorder of the harness's own
// driven around every event, and — for anchored programs — a Trie +
// PrefixRun evaluated around the machine, the twigm-level harness for what
// the engine does per session.
func runEngineStyle(t *testing.T, p *Program, syms *sax.Symbols, doc string, opts Options) []Result {
	t.Helper()
	var pr PrefixRun
	anchor := int32(-1)
	if p.Anchored() {
		var trie *Trie
		trie, anchor = new(Trie).Graft(p.Profile())
		pr.Rebind(trie)
	}
	var results []Result
	opts.EmitFrom = func(_ int, res Result) error {
		results = append(results, res)
		return nil
	}
	run := p.Start(opts)
	var rec Recorder
	run.BindRecorder(&rec)
	if anchor >= 0 {
		run.BindAnchor(pr.Stack(anchor))
	}
	idx := int64(0)
	scan := xmlscan.NewScannerWith(strings.NewReader(doc), syms)
	err := scan.Run(sax.PerEvent(func(ev *sax.Event) error {
		idx++
		if ev.Kind == sax.StartElement {
			pr.StartElement(ev)
		}
		rec.Before(ev)
		if ev.Kind != sax.Text || run.WantsText() {
			if err := run.HandleRouted(ev, idx); err != nil {
				return err
			}
		}
		rec.After(ev)
		if ev.Kind == sax.EndElement {
			pr.EndElement(ev.Depth)
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if pr.HasOpen() {
		t.Fatal("trie entries still open at end of document")
	}
	return results
}

// TestAnchoredEquivalence pins the tentpole invariant at the machine level:
// prefix-shared evaluation is byte-identical — Value, Seq, NodeOffset,
// ConfirmedAt, DeliveredAt and emission order — to the unshared machine.
func TestAnchoredEquivalence(t *testing.T) {
	docs := map[string]string{
		"nested": `<r><a><b p="1"><c>x</c><d k="7">y</d></b><b><c>z</c></b></a>` +
			`<a><a><b><c>deep</c></b></a></a></r>`,
		"recursive": `<a><a><b><c>1</c><b><c>2</c></b></b></a><b><c>3</c></b></a>`,
		"attrs":     `<r><a><b id="i1"><c/></b><b id="i2">t</b></a></r>`,
		"text":      `<r><a><b>hello</b><b>world<c>!</c></b></a></r>`,
		"prefixes":  `<r xmlns:p="u"><p:a><b><c>pc</c></b></p:a><a><b><c>uc</c></b></a></r>`,
	}
	queries := []string{
		"//a/b/c", "//a//b//c", "/r/a/b", "//a/b/@id", "//a/b/text()",
		"//a/b[c]/d", "//a/b[@p='1']/c", "//a/b/c[.='x']", "//*/b/c",
		"//a//b", "//a/a/b", "//p:a/b/c", "//a/b[@id]",
		"//a/b[c and @p]/d", "//r//a//a/b",
	}
	for docName, doc := range docs {
		for _, src := range queries {
			for _, ordered := range []bool{false, true} {
				for _, countOnly := range []bool{false, true} {
					opts := Options{Ordered: ordered, CountOnly: countOnly}
					ssyms := sax.NewSymbols()
					sp, err := CompileShared(mustParse(t, src), ssyms)
					if err != nil {
						t.Fatalf("CompileShared(%q): %v", src, err)
					}
					shared := runEngineStyle(t, sp, ssyms, doc, opts)
					usyms := sax.NewSymbols()
					up, err := CompileWith(mustParse(t, src), usyms)
					if err != nil {
						t.Fatalf("Compile(%q): %v", src, err)
					}
					want := runEngineStyle(t, up, usyms, doc, opts)
					if !reflect.DeepEqual(shared, want) {
						t.Errorf("%s %q (ordered=%v count=%v, anchored=%v):\nshared %+v\nsolo   %+v",
							docName, src, ordered, countOnly, sp.Anchored(), shared, want)
					}
				}
			}
		}
	}
}

// TestAnchoredNilAnchorMatchesNothing: an anchored run without a bound
// anchor stack (the engine always binds; this is the documented fallback)
// must not match or crash.
func TestAnchoredNilAnchorMatchesNothing(t *testing.T) {
	syms := sax.NewSymbols()
	p, err := CompileShared(mustParse(t, "//a/b"), syms)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Anchored() {
		t.Fatal("expected an anchored program")
	}
	run := p.Start(Options{EmitFrom: func(int, Result) error {
		t.Fatal("unexpected result")
		return nil
	}})
	scan := xmlscan.NewScannerWith(strings.NewReader("<a><b/></a>"), syms)
	if err := scan.Run(run); err != nil {
		t.Fatal(err)
	}
}
