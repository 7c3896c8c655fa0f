package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"

	vitex "repro"
)

// equivalenceCorpora is every datagen corpus family at test-friendly scale.
func equivalenceCorpora() []struct{ name, doc string } {
	return []struct{ name, doc string }{
		{"paperFigure1", datagen.PaperFigure1},
		{"book", datagen.Book{SectionDepth: 5, TableDepth: 3, Repeat: 8, AuthorEvery: 2, PositionEvery: 3}.String()},
		{"protein", datagen.Protein{TargetBytes: 48 << 10, Seed: 7}.String()},
		{"ticker", datagen.Ticker{Trades: 150, Seed: 3}.String()},
		{"recursiveChain", datagen.RecursiveChain(10)},
	}
}

// equivalenceQueries mixes matching, sparse (wrong vocabulary), wildcard,
// attribute, text(), self-comparison and union queries — the shapes routed
// dispatch treats differently.
var equivalenceQueries = []string{
	datagen.PaperQuery,
	datagen.PaperProteinQuery,
	"//trade[symbol='ACME']/price",
	"//trade/volume",
	"//section//table",
	"//title/text()",
	"//symbol[.='GLOBEX']",
	"//*[@id]",
	"//a//a//a",
	"//nosuchelement[nope]/@attr",
	"//phantom[@ghost='1']//void",
	"//trade/price | //trade/volume",
	"//section/title | //reference//author | //nosuch",
	"//a | //a//a",
	"//ProteinEntry/@id | //trade/@seq",
}

// streamSet evaluates the set over doc, collecting per-query result
// sequences.
func streamSet(t *testing.T, qs *vitex.QuerySet, doc string, opts vitex.Options) ([][]vitex.Result, []vitex.Stats) {
	t.Helper()
	results := make([][]vitex.Result, qs.Len())
	stats, err := qs.Stream(strings.NewReader(doc), opts, func(sr vitex.SetResult) error {
		results[sr.QueryIndex] = append(results[sr.QueryIndex], sr.Result)
		return nil
	})
	if err != nil {
		t.Fatalf("QuerySet.Stream: %v", err)
	}
	return results, stats
}

// streamSolo evaluates one query independently over doc.
func streamSolo(t *testing.T, q *vitex.Query, doc string, opts vitex.Options) ([]vitex.Result, vitex.Stats) {
	t.Helper()
	var results []vitex.Result
	stats, err := q.Stream(strings.NewReader(doc), opts, func(r vitex.Result) error {
		results = append(results, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Query.Stream(%s): %v", q.Source(), err)
	}
	return results, stats
}

// TestEngineEquivalenceAllCorpora: for every corpus and every option
// combination (Ordered × CountOnly), evaluating the full
// query mix through the routed shared scan must equal N independent
// evaluations — result-for-result, including Seq, NodeOffset, Value and the
// Confirmed/Delivered event clocks, and stat-for-stat (the engine reports
// shared-scan counters, which equal what a solo machine counts because a
// solo machine sees every event).
func TestEngineEquivalenceAllCorpora(t *testing.T) {
	qs, err := vitex.NewQuerySet(equivalenceQueries...)
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]*vitex.Query, len(equivalenceQueries))
	for i, src := range equivalenceQueries {
		solo[i] = vitex.MustCompile(src)
	}
	for _, corpus := range equivalenceCorpora() {
		for _, ordered := range []bool{false, true} {
			for _, countOnly := range []bool{false, true} {
				opts := vitex.Options{Ordered: ordered, CountOnly: countOnly}
				name := fmt.Sprintf("%s/ordered=%v/count=%v", corpus.name, ordered, countOnly)
				shared, sharedStats := streamSet(t, qs, corpus.doc, opts)
				for i := range equivalenceQueries {
					want, wantStats := streamSolo(t, solo[i], corpus.doc, opts)
					if !reflect.DeepEqual(shared[i], want) {
						t.Fatalf("%s query %q:\nshared %+v\nsolo   %+v",
							name, equivalenceQueries[i], shared[i], want)
					}
					if sharedStats[i] != wantStats {
						t.Fatalf("%s query %q stats:\nshared %+v\nsolo   %+v",
							name, equivalenceQueries[i], sharedStats[i], wantStats)
					}
				}
			}
		}
	}
}

// TestEngineEquivalenceRepeatedStreams drives one QuerySet over a sequence
// of different documents, interleaved, to prove pooled machine state resets
// completely between documents (no leakage between streams).
func TestEngineEquivalenceRepeatedStreams(t *testing.T) {
	qs, err := vitex.NewQuerySet(equivalenceQueries...)
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]*vitex.Query, len(equivalenceQueries))
	for i, src := range equivalenceQueries {
		solo[i] = vitex.MustCompile(src)
	}
	corpora := equivalenceCorpora()
	for round := 0; round < 3; round++ {
		for _, corpus := range corpora {
			opts := vitex.Options{Ordered: round%2 == 0}
			shared, _ := streamSet(t, qs, corpus.doc, opts)
			for i := range equivalenceQueries {
				want, _ := streamSolo(t, solo[i], corpus.doc, opts)
				if !reflect.DeepEqual(shared[i], want) {
					t.Fatalf("round %d corpus %s query %q:\nshared %+v\nsolo   %+v",
						round, corpus.name, equivalenceQueries[i], shared[i], want)
				}
			}
		}
	}
}

// TestEngineEquivalenceRandomized stresses routing with random documents and
// random queries (one and three branch), across all mode ablations.
func TestEngineEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 30
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		n := 3 + rng.Intn(5)
		sources := make([]string, n)
		for i := range sources {
			sources[i] = datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
			if rng.Intn(3) == 0 {
				sources[i] += " | " + datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
			}
		}
		qs, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opts := vitex.Options{
			Ordered:   rng.Intn(2) == 0,
			CountOnly: rng.Intn(2) == 0,
		}
		shared, _ := streamSet(t, qs, doc, opts)
		for i, src := range sources {
			want, _ := streamSolo(t, vitex.MustCompile(src), doc, opts)
			if !reflect.DeepEqual(shared[i], want) {
				t.Fatalf("trial %d query %q opts %+v:\nshared %+v\nsolo   %+v\ndoc: %s",
					trial, src, opts, shared[i], want, doc)
			}
		}
	}
}
