package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/twigm"
)

// streamAll evaluates the engine over doc collecting full results per
// machine, serially (workers == 0) or sharded.
func streamAll(t *testing.T, e *Engine, doc string, base twigm.Options, workers int) ([][]twigm.Result, []twigm.Stats, error) {
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
	stats, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts, workers)
	return out, stats, err
}

var parallelTestSources = []string{
	"//trade[symbol='ACME']/price",
	"//trade/volume",
	"//trade/@seq",
	"//*[@seq]",
	"//symbol[.='GLOBEX']",
	"//nosuchelement[nope]/@attr",
	"//trade//price",
	"//book//title",
}

// TestStreamParallelMatchesSerial: sharded evaluation must be byte-identical
// to serial routed dispatch — results, Seqs, clocks and statistics — for
// every worker count and mode. TestFrontEndsAgree holds both to saxtest's
// reference front-end.
func TestStreamParallelMatchesSerial(t *testing.T) {
	e := mustEngine(t, parallelTestSources...)
	doc := datagen.Ticker{Trades: 120, Seed: 5}.String()
	for _, workers := range []int{2, 3, 5, 8} {
		for _, base := range []twigm.Options{{}, {Ordered: true}, {CountOnly: true}} {
			name := fmt.Sprintf("workers=%d/%+v", workers, base)
			want, wantStats, err := streamAll(t, e, doc, base, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := streamAll(t, e, doc, base, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: results diverge\nserial   %+v\nparallel %+v", name, want, got)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("%s: stats diverge\nserial   %+v\nparallel %+v", name, wantStats, gotStats)
			}
		}
	}
}

// TestStreamParallelEmissionOrder: the merged emission sequence (across
// machines, as the caller observes it) must equal the serial interleaving,
// not just the per-machine sequences.
func TestStreamParallelEmissionOrder(t *testing.T) {
	e := mustEngine(t, parallelTestSources...)
	doc := datagen.Ticker{Trades: 200, Seed: 8}.String()
	order := func(workers int) []string {
		var seq []string
		opts := make([]twigm.Options, e.Len())
		for i := range opts {
			idx := i
			opts[i] = twigm.Options{EmitFrom: func(_ int, r twigm.Result) error {
				seq = append(seq, fmt.Sprintf("%d@%d:%d", idx, r.DeliveredAt, r.Seq))
				return nil
			}}
		}
		var err error
		if workers == 0 {
			_, err = streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts, 0)
		} else {
			_, err = streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts, workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	want := order(0)
	for _, workers := range []int{2, 4, 7} {
		if got := order(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: emission order diverges\nserial   %v\nparallel %v", workers, want, got)
		}
	}
}

// TestStreamParallelRepeatedStreams: pooled parallel sessions must reset
// completely between documents, including across worker-count changes.
func TestStreamParallelRepeatedStreams(t *testing.T) {
	e := mustEngine(t, parallelTestSources...)
	rng := rand.New(rand.NewSource(13))
	docs := []string{
		datagen.Ticker{Trades: 60, Seed: 1}.String(),
		datagen.Ticker{Trades: 90, Seed: 2}.String(),
		datagen.Book{SectionDepth: 4, TableDepth: 2, Repeat: 4, AuthorEvery: 2, PositionEvery: 2}.String(),
	}
	for round := 0; round < 6; round++ {
		doc := docs[round%len(docs)]
		workers := 2 + rng.Intn(4)
		base := twigm.Options{Ordered: round%2 == 0}
		want, _, err := streamAll(t, e, doc, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := streamAll(t, e, doc, base, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d workers %d: results diverge", round, workers)
		}
	}
}

// TestStreamParallelErrors: scan syntax errors and Emit failures must abort
// the evaluation and propagate, without deadlocking the pipeline.
func TestStreamParallelErrors(t *testing.T) {
	e := mustEngine(t, "//a", "//b", "//c")
	opts := func(emit func(twigm.Result) error) []twigm.Options {
		o := make([]twigm.Options, e.Len())
		for i := range o {
			o[i] = twigm.Options{EmitFrom: func(_ int, r twigm.Result) error { return emit(r) }}
		}
		return o
	}
	if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader("<r><a>1</a><oops></r>"),
		opts(func(twigm.Result) error { return nil }), 2); err == nil {
		t.Fatal("malformed document: expected error")
	}
	boom := errors.New("boom")
	bigDoc := "<r>" + strings.Repeat("<a>x</a><b>y</b><c>z</c>", 2000) + "</r>"
	_, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(bigDoc),
		opts(func(twigm.Result) error { return boom }), 3)
	if !errors.Is(err, boom) {
		t.Fatalf("emit error: got %v, want boom", err)
	}
}

// TestStreamParallelFallsBackToSerial: one machine, one worker or a Trace
// writer must take the serial path (and still be correct).
func TestStreamParallelFallsBackToSerial(t *testing.T) {
	e := mustEngine(t, "//a")
	doc := "<r><a>1</a><a>2</a></r>"
	var got []string
	opts := []twigm.Options{{EmitFrom: func(_ int, r twigm.Result) error {
		got = append(got, r.Value)
		return nil
	}}}
	if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts, 8); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"<a>1</a>", "<a>2</a>"}) {
		t.Fatalf("results = %q", got)
	}
}

// TestConcurrentParallelStreams: concurrent StreamParallel calls on one
// Engine must each check out a private parallel session and stay correct.
func TestConcurrentParallelStreams(t *testing.T) {
	e := mustEngine(t, "//trade/price", "//trade[symbol='A']/price", "//nothing")
	doc := `<feed>` + strings.Repeat(`<trade><symbol>A</symbol><price>7</price></trade><trade><symbol>B</symbol><price>9</price></trade>`, 20) + `</feed>`
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		workers := 2 + g%3
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				counts := make([]int, e.Len())
				opts := make([]twigm.Options, e.Len())
				for j := range opts {
					opts[j].CountOnly = true
					opts[j].EmitFrom = func(int, twigm.Result) error { counts[j]++; return nil }
				}
				if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts, workers); err != nil {
					errs <- err
					return
				}
				if counts[0] != 40 || counts[1] != 20 || counts[2] != 0 {
					errs <- fmt.Errorf("counts = %v", counts)
					return
				}
			}
		}(workers)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
