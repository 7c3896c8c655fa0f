package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// The front-end differential. The scanner is the only XML front-end the
// engine has; this file holds it to an independent one. Every evaluation runs
// twice — on the session's scanner, and on saxtest's encoding/xml reference
// front-end interning against the engine's symbol table — and the two must
// agree result for result (Value, Seq, NodeOffset, ConfirmedAt, DeliveredAt),
// stat for stat and in the machines they wake.

// frontEndQueries covers the name-test, attribute, text, predicate and union
// shapes whose semantics could plausibly diverge between front-ends. A union
// runs as one machine per branch.
var frontEndQueries = []string{
	"//a",
	"//p:a",
	"//q:c",
	"//r/*",
	"//a/text()",
	"//a/@k",
	"//a[@k='1']",
	"//a[@k]",
	"//*[@k]",
	"//a[.='onetwo']",
	"//r//a",
	"//a//a//a",
	"//a | //b",
	"//p:a | //a",
	"//@k | //@j",
}

// unionEngine compiles every branch of every source into one engine.
func unionEngine(t *testing.T, sources ...string) *Engine {
	t.Helper()
	var branches []*xpath.Query
	for _, src := range sources {
		qs, err := xpath.ParseUnion(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		branches = append(branches, qs...)
	}
	e, err := New(branches...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// frontEndRun is what one evaluation produced: per-machine results and
// statistics, and how many machine deliveries the routing made.
type frontEndRun struct {
	results    [][]twigm.Result
	stats      []twigm.Stats
	deliveries int64
}

// streamFrontEnd evaluates e's machines over doc on a fresh session, read by
// the scanner or, with std, by the reference front-end.
func streamFrontEnd(e *Engine, doc string, std bool, base twigm.Options) (frontEndRun, error) {
	run := frontEndRun{results: make([][]twigm.Result, e.Len())}
	opts := make([]twigm.Options, e.Len())
	for i := range opts {
		opts[i] = base
		opts[i].EmitFrom = func(d int, r twigm.Result) error {
			run.results[d] = append(run.results[d], r)
			return nil
		}
	}
	plan, finish := planOf(opts)
	ep := e.cur.Load()
	before := e.deliveries.Load()
	ses := newSession(e)
	var drv sax.Driver = ses.scan
	if std {
		drv = saxtest.NewStdDriverWith(strings.NewReader(doc), e.syms)
	} else {
		ses.scan.Reset(strings.NewReader(doc))
	}
	scan, err := ses.stream(context.Background(), e, ep, drv, plan)
	run.stats = finish(scan)
	run.deliveries = e.deliveries.Load() - before
	return run, err
}

// assertFrontEndsAgree evaluates doc on the scanner, then on the reference
// front-end, and fails on any difference.
func assertFrontEndsAgree(t *testing.T, name string, e *Engine, doc string, base twigm.Options) {
	t.Helper()
	want, err := streamFrontEnd(e, doc, false, base)
	if err != nil {
		t.Fatalf("%s: scanner: %v\ndoc: %s", name, err, doc)
	}
	got, err := streamFrontEnd(e, doc, true, base)
	if err != nil {
		t.Fatalf("%s: reference front-end: %v\ndoc: %s", name, err, doc)
	}
	if !reflect.DeepEqual(got.results, want.results) {
		t.Fatalf("%s: results diverge\nscanner   %+v\nreference %+v\ndoc: %s", name, want.results, got.results, doc)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: stats diverge\nscanner   %+v\nreference %+v\ndoc: %s", name, want.stats, got.stats, doc)
	}
	if got.deliveries != want.deliveries {
		t.Fatalf("%s: routing diverges: %d machine deliveries on the scanner, %d on the reference\ndoc: %s",
			name, want.deliveries, got.deliveries, doc)
	}
}

// TestFrontEndsAgree: every edge-case document × query × mode.
func TestFrontEndsAgree(t *testing.T) {
	e := unionEngine(t, frontEndQueries...)
	modes := []struct {
		name string
		base twigm.Options
	}{{"plain", twigm.Options{}}, {"ordered", twigm.Options{Ordered: true}}, {"countOnly", twigm.Options{CountOnly: true}}}
	for _, d := range saxtest.EdgeDocs() {
		for _, m := range modes {
			assertFrontEndsAgree(t, d.Name+"/"+m.name, e, d.Doc, m.base)
		}
	}
}

// TestFrontEndsAgreeRandomized is the randomized arm, over two seeded
// streams: the differential campaign's (internal/integration; the same seed
// and generator calls, so the same 520 document/query pairs) and random
// queries with unions over random trees.
func TestFrontEndsAgreeRandomized(t *testing.T) {
	rounds, trials := 130, 40
	if testing.Short() {
		rounds, trials = 15, 8
	}
	rng := rand.New(rand.NewSource(20260725))
	docGens := []datagen.RandomTree{datagen.DefaultRandomTree, datagen.ChurnRandomTree}
	for round := 0; round < rounds; round++ {
		doc := docGens[round%len(docGens)].Generate(rng)
		gen := datagen.DefaultQueryGen
		sources := make([]string, 4)
		for i := range sources {
			gen.ConjunctiveOnly = i%2 == 0
			sources[i] = gen.Generate(rng)
		}
		base := twigm.Options{Ordered: round%2 == 0}
		assertFrontEndsAgree(t, fmt.Sprintf("campaign round %d %q", round, sources), unionEngine(t, sources...), doc, base)
	}
	rng = rand.New(rand.NewSource(59))
	for trial := 0; trial < trials; trial++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		src := datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		if rng.Intn(4) == 0 {
			src += " | " + datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		}
		base := twigm.Options{Ordered: rng.Intn(2) == 0}
		assertFrontEndsAgree(t, fmt.Sprintf("trial %d %q", trial, src), unionEngine(t, src), doc, base)
	}
}
