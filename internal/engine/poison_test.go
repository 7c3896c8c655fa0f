package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
)

// streamPoisoned is Snapshot.Stream with the poisoning sink between the
// scanner and the session: every Text, Attr.Value and Attrs slice of a batch
// is destroyed the moment the session's HandleBatch returns, so anything the
// router, the trie or a machine kept without cloning shows up as a corrupted
// result.
func streamPoisoned(t *testing.T, e *Engine, doc string, base twigm.Options) ([][]twigm.Result, []twigm.Stats) {
	t.Helper()
	out := make([][]twigm.Result, e.Len())
	opts := make([]twigm.Options, e.Len())
	for i := range opts {
		idx := i
		opts[i] = base
		opts[i].EmitFrom = func(_ int, r twigm.Result) error {
			out[idx] = append(out[idx], r)
			return nil
		}
	}
	plan, finish := planOf(opts)
	ses := newSession(e)
	ses.scan.Reset(strings.NewReader(doc))
	scan, err := ses.stream(context.Background(), e, e.cur.Load(), saxtest.PoisonDriver(ses.scan), plan)
	if err != nil {
		t.Fatal(err)
	}
	return out, finish(scan)
}

// poisonCampaignQueries is the mix the integration equivalence campaign
// routes (internal/integration), one machine per union branch: matching,
// sparse, wildcard, attribute, text(), self-comparison — every shape that
// retains an event-derived value.
var poisonCampaignQueries = []string{
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
	"//trade/@seq",
	"//ProteinEntry/@id",
	"//reference//author",
}

// TestEngineEquivalenceOverPoisonedBatches runs the engine equivalence
// campaign over the poisoning sink: on every corpus family and mode, a
// session fed poisoned batches must produce the results and statistics of
// the plain Stream (which the integration campaign holds equal to solo
// evaluation and the DOM oracle).
func TestEngineEquivalenceOverPoisonedBatches(t *testing.T) {
	corpora := []struct{ name, doc string }{
		{"paperFigure1", datagen.PaperFigure1},
		{"book", datagen.Book{SectionDepth: 5, TableDepth: 3, Repeat: 8, AuthorEvery: 2, PositionEvery: 3}.String()},
		{"protein", datagen.Protein{TargetBytes: 48 << 10, Seed: 7}.String()},
		{"ticker", datagen.Ticker{Trades: 150, Seed: 3}.String()},
		{"recursiveChain", datagen.RecursiveChain(10)},
	}
	e := mustEngine(t, poisonCampaignQueries...)
	for _, corpus := range corpora {
		for _, base := range []twigm.Options{{}, {Ordered: true}, {CountOnly: true}} {
			name := fmt.Sprintf("%s/%+v", corpus.name, base)
			want, wantStats, err := streamAll(t, e, corpus.doc, base)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, gotStats := streamPoisoned(t, e, corpus.doc, base)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: results over poisoned batches diverge\nplain    %+v\npoisoned %+v", name, want, got)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("%s: stats over poisoned batches diverge\nplain    %+v\npoisoned %+v", name, wantStats, gotStats)
			}
		}
	}
}

// TestEngineRandomizedOverPoisonedBatches is the randomized arm: random
// trees and random query sets, each query held against its solo evaluation
// (a one-machine engine over the plain path), result for result.
func TestEngineRandomizedOverPoisonedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		sources := make([]string, 3+rng.Intn(5))
		for i := range sources {
			sources[i] = datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		}
		base := twigm.Options{Ordered: rng.Intn(2) == 0, CountOnly: rng.Intn(2) == 0}
		got, _ := streamPoisoned(t, mustEngine(t, sources...), doc, base)
		for i, src := range sources {
			want, _, err := streamAll(t, mustEngine(t, src), doc, base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want[0]) {
				t.Fatalf("trial %d query %q %+v:\npoisoned set %+v\nsolo         %+v\ndoc: %s", trial, src, base, got[i], want[0], doc)
			}
		}
	}
}
