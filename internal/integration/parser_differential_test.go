package integration

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/xmlscan"

	vitex "repro"
)

// This file is the event-level half of the permanent front-end differential
// (the result-level half is internal/engine's TestFrontEndsAgree): on every
// document, the scanner and saxtest's encoding/xml reference front-end, both
// resolving names against one symbol table, must deliver the same events —
// every field the engine consumes, NameIDs included. This is the harness that
// caught the two conformance bugs fixed alongside it: prefixed elements
// matching under one parser but not the other, and UTF-8 BOMs rejected as
// "character data outside root element" by both.

// differentialSymbols interns part of the corpus and random-tree vocabulary,
// the way a compiled query set would, so events carry both table IDs and
// SymUnknown.
func differentialSymbols() *sax.Symbols {
	syms := sax.NewSymbols()
	for _, name := range []string{"a", "c", "k"} {
		syms.Intern(name)
	}
	return syms
}

// renderEvent renders every field of an event the engine reads. It copies
// every string, so it is safe for events whose strings die when HandleBatch
// returns.
func renderEvent(ev *sax.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v|%s|%s|%s|#%d|d%d|%q|@%d", ev.Kind, ev.Name, ev.Prefix, ev.Local, ev.NameID, ev.Depth, ev.Text, ev.Offset)
	for i := range ev.Attrs {
		a := &ev.Attrs[i]
		fmt.Fprintf(&sb, "|%s/%s/%s#%d=%q", a.Name, a.Prefix, a.Local, a.NameID, a.Value)
	}
	return sb.String()
}

// traceEvents renders the events a driver delivers.
func traceEvents(d sax.Driver) ([]string, error) {
	var out []string
	err := d.Run(sax.PerEvent(func(ev *sax.Event) error {
		out = append(out, renderEvent(ev))
		return nil
	}))
	return out, err
}

// assertSameEvents runs doc through the scanner (over the poisoning sink) and
// the reference front-end, both interning against syms, and fails on any
// error or difference.
func assertSameEvents(t *testing.T, name, doc string, syms *sax.Symbols) {
	t.Helper()
	scanned, serr := traceEvents(saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), syms)))
	std, rerr := traceEvents(saxtest.NewStdDriverWith(strings.NewReader(doc), syms))
	if serr != nil || rerr != nil {
		t.Fatalf("%s: scanner err=%v, reference err=%v\ndoc: %s", name, serr, rerr, doc)
	}
	for i := range max(len(scanned), len(std)) {
		if i >= len(scanned) || i >= len(std) || scanned[i] != std[i] {
			t.Fatalf("%s: event %d diverges\nscanner   %q\nreference %q\ndoc: %s", name, i, scanned, std, doc)
		}
	}
}

// TestParserDifferential is the permanent harness: identical event streams
// under both front-ends for every corpus document.
func TestParserDifferential(t *testing.T) {
	syms := differentialSymbols()
	for _, d := range saxtest.EdgeDocs() {
		assertSameEvents(t, d.Name, d.Doc, syms)
	}
}

// TestPrefixedNameRegression pins a fixed conformance bug: //a once found
// <p:a> with the encoding/xml front-end (which strips prefixes) but not with
// the scanner (which kept them), so the answer depended on the parser. Both
// front-ends must now report the lexical prefix and the local name alike, and
// queries match local names: //a finds both <p:a> and <a>, //p:a finds only
// <p:a>, and //u:a (wrong prefix) finds nothing.
func TestPrefixedNameRegression(t *testing.T) {
	doc := `<r xmlns:p='u'><p:a>x</p:a><a>y</a></r>`
	assertSameEvents(t, "prefixes", doc, differentialSymbols())
	check := func(src string, want []string) {
		t.Helper()
		got, err := vitex.MustCompile(src).EvaluateString(doc)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !equal(got, want) {
			t.Fatalf("%s: got %q, want %q", src, got, want)
		}
	}
	check("//a", []string{"<p:a>x</p:a>", "<a>y</a>"})
	check("//p:a", []string{"<p:a>x</p:a>"})
	check("//u:a", nil)
	check("//a/text()", []string{"x", "y"})
}

// TestBOMHandling: a UTF-8 BOM must be skipped by both front-ends; UTF-16
// and UTF-32 BOMs must be rejected with an unsupported-encoding error, not a
// tag-soup syntax error.
func TestBOMHandling(t *testing.T) {
	q := vitex.MustCompile("//a/text()")
	got, err := q.EvaluateString("\xEF\xBB\xBF<r><a>1</a></r>")
	if err != nil {
		t.Fatalf("UTF-8 BOM: %v", err)
	}
	if !equal(got, []string{"1"}) {
		t.Fatalf("UTF-8 BOM: got %q", got)
	}
	assertSameEvents(t, "utf8BOM", "\xEF\xBB\xBF<r><a>1</a></r>", differentialSymbols())
	for name, doc := range map[string]string{
		"UTF-16BE": "\xFE\xFF\x00<\x00r",
		"UTF-16LE": "\xFF\xFE<\x00r\x00",
		"UTF-32BE": "\x00\x00\xFE\xFF",
	} {
		_, err := q.Stream(strings.NewReader(doc), vitex.Options{}, func(vitex.Result) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "unsupported encoding") {
			t.Fatalf("%s: err = %v, want unsupported-encoding error", name, err)
		}
		if _, err := traceEvents(saxtest.NewStdDriver(strings.NewReader(doc))); err == nil || !strings.Contains(err.Error(), "unsupported encoding") {
			t.Fatalf("%s: reference front-end err = %v, want unsupported-encoding error", name, err)
		}
	}
}

// TestParserDifferentialRandomized extends the harness with seeded random
// documents of the churn campaign's profile: deep, self-nesting label chains
// (TestFrontEndsAgree covers the default profile).
func TestParserDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	syms := differentialSymbols()
	for trial := 0; trial < trials; trial++ {
		assertSameEvents(t, fmt.Sprintf("trial %d", trial), datagen.ChurnRandomTree.Generate(rng), syms)
	}
}
