package vitex

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xpath"
)

func TestQuickstart(t *testing.T) {
	q := MustCompile(datagen.PaperQuery)
	got, err := q.EvaluateString(datagen.PaperFigure1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "<cell> A </cell>" {
		t.Fatalf("got %q", got)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not a query"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Compile("//a[not(b)]"); err == nil {
		t.Fatal("expected unsupported-function error")
	}
}

// TestCompileNestingBomb: a query nested two million predicates deep used to
// overflow the goroutine stack, a fatal error no caller can recover from. The
// parser now refuses it at MaxNestingDepth, before it recurses that far.
func TestCompileNestingBomb(t *testing.T) {
	const depth = 2_000_000
	_, err := Compile("//a" + strings.Repeat("[a", depth) + strings.Repeat("]", depth))
	var pe *xpath.ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "MaxNestingDepth") {
		t.Fatalf("err = %.200v, want a *xpath.ParseError naming MaxNestingDepth", err)
	}
}

func TestStreamCallback(t *testing.T) {
	q := MustCompile("//trade[symbol='ACME']/price")
	doc := datagen.Ticker{Trades: 100, Seed: 1}.String()
	var prices []string
	stats, err := q.Stream(strings.NewReader(doc), Options{}, func(r Result) error {
		prices = append(prices, r.Value)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) == 0 {
		t.Fatal("no results")
	}
	if stats.Events == 0 || stats.CandidatesEmitted != int64(len(prices)) {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
}

func TestCount(t *testing.T) {
	q := MustCompile("//ProteinEntry[reference]/@id")
	p := datagen.Protein{TargetBytes: 100 << 10, Seed: 5}
	_, withRef := p.Counts()
	n, err := q.Count(strings.NewReader(p.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(withRef) {
		t.Fatalf("Count = %d, generator says %d", n, withRef)
	}
}

func TestEvaluateOrdered(t *testing.T) {
	q := MustCompile("//a[p]/b")
	doc := "<r><a><b>1</b><b>2</b><p/></a></r>"
	results, err := q.Evaluate(strings.NewReader(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Value != "<b>1</b>" || results[1].Value != "<b>2</b>" {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Seq >= results[1].Seq {
		t.Fatal("not in document order")
	}
}

func TestConcurrentEvaluations(t *testing.T) {
	q := MustCompile(datagen.PaperQuery)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := q.EvaluateString(datagen.PaperFigure1)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != 1 {
				errs <- &strError{"wrong result count"}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type strError struct{ s string }

func (e *strError) Error() string { return e.s }

func TestQueryIntrospection(t *testing.T) {
	q := MustCompile(datagen.PaperQuery)
	if q.Size() != 5 {
		t.Fatalf("Size = %d", q.Size())
	}
	if q.String() != datagen.PaperQuery {
		t.Fatalf("String = %q", q.String())
	}
	if q.Source() != datagen.PaperQuery {
		t.Fatalf("Source = %q", q.Source())
	}
	if !strings.Contains(q.MachineDescription(), "=cell *") {
		t.Fatalf("MachineDescription:\n%s", q.MachineDescription())
	}
}

func TestMalformedStream(t *testing.T) {
	q := MustCompile("//a")
	if _, err := q.EvaluateString("<a><b></a>"); err == nil {
		t.Fatal("expected syntax error")
	}
}

func TestTraceOption(t *testing.T) {
	q := MustCompile("//a[p]/b")
	var log strings.Builder
	_, err := q.Stream(strings.NewReader("<r><a><b/><p/></a></r>"), Options{Trace: &log}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"push   a", "cand   #0", "match  p", "proven #0", "emit   #0"} {
		if !strings.Contains(log.String(), want) {
			t.Fatalf("trace missing %q:\n%s", want, log.String())
		}
	}
}

func TestEmitErrorStopsStream(t *testing.T) {
	q := MustCompile("//a")
	doc := "<r>" + strings.Repeat("<a/>", 100) + "</r>"
	calls := 0
	_, err := q.Stream(strings.NewReader(doc), Options{}, func(Result) error {
		calls++
		return &strError{"enough"}
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// TestXMLPrefixedAttributeMatchesOracle: the xml prefix is bound by
// definition (Namespaces in XML 1.0 §3), so an xml:lang attribute is the
// lexical QName xml:lang on both front-ends, and //b/@xml:lang selects it
// through the engine and through the DOM oracle alike. The oracle's front-end
// reported it under the namespace URI as its prefix, and selected nothing,
// while the engine selected "en".
func TestXMLPrefixedAttributeMatchesOracle(t *testing.T) {
	for _, doc := range []string{
		`<a><b xml:lang='en'></b></a>`,
		`<p:a xmlns:p='u'><b xml:lang='en'>x</b></p:a>`,
	} {
		for _, query := range []string{"//b/@xml:lang", "//b/@lang"} {
			want := unionOracle(t, doc, query)
			got, err := MustCompile(query).EvaluateString(doc)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 1 || want[0] != "en" || len(got) != 1 || got[0] != "en" {
				t.Fatalf("%s over %q: engine %q, oracle %q; want [en] from both", query, doc, got, want)
			}
		}
	}
}
