package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"

	vitex "repro"
)

// This file is the randomized differential campaign: grammar-driven random
// queries (datagen.QueryGen — the full supported fragment, including nested
// predicates, disjunctions and unions) over random recursive documents, with
// every (query, document) pair asserted along five independent equivalence
// axes:
//
//  1. TwigM == naive match enumeration (where the naive fragment allows)
//  2. TwigM == DOM oracle (random access is ground truth by definition)
//  3. scanner == encoding/xml reference front-end (event streams; the
//     engine's TestFrontEndsAgreeRandomized replays these pairs for results
//     and clocks)
//  4. churned QuerySet (built by Add/Remove/Replace) == freshly compiled set
//     (results AND stats)
//  5. projected evaluation == the unprojected stream, for the round's set and
//     for each of its queries alone (every machine's emissions and stats,
//     projection_test.go)
//
// In normal `go test` mode the campaign covers at least 500 pairs; -short
// shrinks it to a smoke test.

// oracleUnionResults evaluates all branches via the DOM, deduplicated in
// document order — the union semantics ground truth. Results compare as the
// engine's Result.Value has them: an element serialized, an attribute by its
// value and a text node by its text, unescaped.
func oracleUnionResults(t *testing.T, d *dom.Document, branches []*xpath.Query) []string {
	t.Helper()
	nodes := dom.EvalUnion(d, branches)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n.Kind == dom.TextNode {
			out = append(out, n.Text)
			continue
		}
		out = append(out, n.Serialize())
	}
	return out
}

func TestDifferentialCampaign(t *testing.T) {
	rounds := 130
	const perRound = 4 // queries per document: rounds*perRound pairs
	if testing.Short() {
		rounds = 15
	}
	rng := rand.New(rand.NewSource(20260725))
	docGens := []datagen.RandomTree{datagen.DefaultRandomTree, datagen.ChurnRandomTree}
	pairs, naiveChecked := 0, 0
	syms := differentialSymbols()

	for round := 0; round < rounds; round++ {
		doc := docGens[round%len(docGens)].Generate(rng)
		d, err := dom.Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))))
		if err != nil {
			t.Fatalf("round %d: dom build: %v\ndoc: %s", round, err, doc)
		}
		gen := datagen.DefaultQueryGen
		sources := make([]string, perRound)
		for i := range sources {
			gen.ConjunctiveOnly = i%2 == 0
			sources[i] = gen.Generate(rng)
		}

		for _, src := range sources {
			pairs++
			branches, err := xpath.ParseUnion(src)
			if err != nil {
				t.Fatalf("round %d: generated query %q does not parse: %v", round, src, err)
			}
			want := oracleUnionResults(t, d, branches)

			// Axis 2: TwigM (through the full vitex engine stack, union
			// included) against the DOM oracle.
			q := vitex.MustCompile(src)
			got, err := q.EvaluateString(doc)
			if err != nil {
				t.Fatalf("round %d %q: %v", round, src, err)
			}
			if !equal(got, want) {
				t.Fatalf("round %d: twigm disagrees with oracle\nquery: %s\ndoc: %s\n got: %q\nwant: %q",
					round, src, doc, got, want)
			}

			// Axis 1: the naive match-enumeration baseline, where its
			// fragment allows (single branch, no disjunction).
			if len(branches) == 1 {
				if ngot, ok := naiveResults(t, doc, branches[0]); ok {
					naiveChecked++
					if !equal(ngot, want) {
						t.Fatalf("round %d: naive disagrees with oracle\nquery: %s\ndoc: %s\n got: %q\nwant: %q",
							round, src, doc, ngot, want)
					}
				}
			}
		}

		// Axis 3: both XML front-ends deliver the same events.
		assertSameEvents(t, fmt.Sprintf("round %d", round), doc, syms)

		// Axis 4: a set assembled by live churn — junk queries added up
		// front and removed again, one query Replaced in place — must be
		// indistinguishable from the freshly compiled set: same results,
		// same Seq, same stats.
		qs, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		opts := vitex.Options{Ordered: round%2 == 0, CountOnly: round%3 == 0}
		fresh, freshStats := streamSet(t, qs, doc, opts)
		churned, err := vitex.NewQuerySet("//zzzjunk[qqq]/@none", "//junktwo//zzz")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, src := range sources {
			if _, err := churned.Add(vitex.MustCompile(src)); err != nil {
				t.Fatalf("round %d: churn add %q: %v", round, src, err)
			}
		}
		if err := churned.Remove(0); err != nil { // junk 1; indexes shift
			t.Fatal(err)
		}
		if err := churned.Remove(0); err != nil { // junk 2
			t.Fatal(err)
		}
		ri := round % perRound
		if err := churned.Replace(ri, vitex.MustCompile(sources[ri])); err != nil {
			t.Fatalf("round %d: churn replace: %v", round, err)
		}
		churnRes, churnStats := streamSet(t, churned, doc, opts)
		if !reflect.DeepEqual(churnRes, fresh) || !reflect.DeepEqual(churnStats, freshStats) {
			t.Fatalf("round %d: churned set diverges from fresh set\nqueries: %q\ndoc: %s\nfresh   %+v %+v\nchurned %+v %+v",
				round, sources, doc, fresh, freshStats, churnRes, churnStats)
		}

		// Axis 5: what a projection omits is invisible. One '*' step turns
		// projection off for a whole set, so each query runs alone too.
		popts := twigm.Options{Ordered: opts.Ordered, CountOnly: opts.CountOnly}
		name := fmt.Sprintf("round %d", round)
		if err := assertProjectionInvisible(t, name, sources, doc, popts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, src := range sources {
			if err := assertProjectionInvisible(t, name, []string{src}, doc, popts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}

	if !testing.Short() {
		if pairs < 500 {
			t.Fatalf("campaign covered %d pairs, want >= 500", pairs)
		}
		if naiveChecked < 50 {
			t.Fatalf("naive axis exercised on only %d pairs", naiveChecked)
		}
	}
	t.Logf("campaign: %d (query, doc) pairs, naive axis on %d", pairs, naiveChecked)
}
