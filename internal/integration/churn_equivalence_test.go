package integration

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"

	vitex "repro"
)

// Churn-specific equivalence tests: a QuerySet mutated while alive — with
// warm pooled sessions, mid-document-sequence, and concurrently with
// Stream calls — must behave exactly like a freshly compiled set at every
// point. Run under -race in CI.

// TestQuerySetChurnWalkMatchesFresh drives a random Add/Remove/Replace walk
// and, after every mutation, compares the churned set's complete output
// (per-query results with Seq/offsets/clocks, and stats) against a freshly
// compiled set over the same sources — plain, ordered and count-only.
func TestQuerySetChurnWalkMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gen := datagen.DefaultQueryGen
	doc := datagen.ChurnRandomTree.Generate(rng)
	qs, err := vitex.NewQuerySet()
	if err != nil {
		t.Fatal(err)
	}
	var sources []string
	steps := 50
	if testing.Short() {
		steps = 12
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(4); {
		case op <= 1 || len(sources) == 0: // Add (weighted: sets should grow)
			src := gen.Generate(rng)
			if _, err := qs.Add(vitex.MustCompile(src)); err != nil {
				t.Fatalf("step %d: add %q: %v", step, src, err)
			}
			sources = append(sources, src)
		case op == 2: // Remove
			i := rng.Intn(len(sources))
			if err := qs.Remove(i); err != nil {
				t.Fatalf("step %d: remove %d: %v", step, i, err)
			}
			sources = append(sources[:i], sources[i+1:]...)
		default: // Replace
			i := rng.Intn(len(sources))
			src := gen.Generate(rng)
			if err := qs.Replace(i, vitex.MustCompile(src)); err != nil {
				t.Fatalf("step %d: replace %d %q: %v", step, i, src, err)
			}
			sources[i] = src
		}
		fresh, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		opts := vitex.Options{
			Ordered:   step%2 == 0,
			CountOnly: step%3 == 0,
		}
		churnRes, churnStats := streamSet(t, qs, doc, opts)
		freshRes, freshStats := streamSet(t, fresh, doc, opts)
		if !reflect.DeepEqual(churnRes, freshRes) {
			t.Fatalf("step %d (sources %q): churned results diverge\nchurned %+v\nfresh   %+v",
				step, sources, churnRes, freshRes)
		}
		if !reflect.DeepEqual(churnStats, freshStats) {
			t.Fatalf("step %d (sources %q): churned stats diverge\nchurned %+v\nfresh   %+v",
				step, sources, churnStats, freshStats)
		}
	}
	// The walk's engine must have compiled exactly one machine per branch
	// ever added — never the rest of the set.
	m := qs.Metrics()
	if m.Compiles > int64(4*steps) {
		t.Fatalf("churn walk compiled %d machines over %d mutations", m.Compiles, steps)
	}
}

// TestQuerySetRemoveWithWarmSessions removes a query whose pooled sessions
// have already evaluated documents; the surviving
// queries must keep producing exactly their fresh-set output from the same
// warm pools.
func TestQuerySetRemoveWithWarmSessions(t *testing.T) {
	doc := datagen.Ticker{Trades: 100, Seed: 3}.String()
	qs, err := vitex.NewQuerySet(
		"//trade[symbol='ACME']/price",
		"//trade/volume",
		"//trade/@seq",
	)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the session pool with all three machines live.
	streamSet(t, qs, doc, vitex.Options{})

	if err := qs.Remove(1); err != nil {
		t.Fatal(err)
	}
	fresh, err := vitex.NewQuerySet("//trade[symbol='ACME']/price", "//trade/@seq")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []vitex.Options{{}, {Ordered: true}} {
		got, gotStats := streamSet(t, qs, doc, opts)
		want, wantStats := streamSet(t, fresh, doc, opts)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("opts %+v: warm-pool set diverges from fresh after Remove\ngot  %+v\nwant %+v",
				opts, got, want)
		}
	}
}

// TestQuerySetAddMidDocumentSequence adds a query halfway through a long
// sequence of documents served by one live set: earlier documents must not
// see it, later documents must, and an in-flight snapshot taken before the
// Add must keep evaluating the old membership.
func TestQuerySetAddMidDocumentSequence(t *testing.T) {
	qs, err := vitex.NewQuerySet("//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	const docs = 20
	for i := 0; i < docs; i++ {
		doc := datagen.Ticker{Trades: 50, Seed: int64(i + 1)}.String()
		if i == docs/2 {
			if _, err := qs.Add(vitex.MustCompile("//trade/volume")); err != nil {
				t.Fatal(err)
			}
		}
		counts, err := qs.Counts(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		wantQueries := 1
		if i >= docs/2 {
			wantQueries = 2
		}
		if len(counts) != wantQueries {
			t.Fatalf("doc %d: %d queries reporting, want %d", i, len(counts), wantQueries)
		}
		if i >= docs/2 && counts[1] != 50 {
			t.Fatalf("doc %d: added query counted %d volumes, want 50", i, counts[1])
		}
	}
}

// TestQuerySetConcurrentChurnAndStreams interleaves Add/Remove/Replace with
// three concurrent Stream calls on one live set. Every
// stream must complete without error and be internally consistent with the
// membership snapshot it started from: one stats entry per query, every
// emitted QueryIndex within range, and per-query result counts that match a
// fresh evaluation of that query over the same document.
func TestQuerySetConcurrentChurnAndStreams(t *testing.T) {
	doc := datagen.Ticker{Trades: 60, Seed: 5}.String()
	// Solo counts for every query the churner can install, computed up
	// front: any snapshot's per-query output must match one of these.
	vocab := []string{
		"//trade[symbol='ACME']/price",
		"//trade/volume",
		"//trade/@seq",
		"//trade[price>150]/price",
		"//news//absent",
	}
	solo := make(map[string]int64)
	for _, src := range vocab {
		n, err := vitex.MustCompile(src).Count(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		solo[src] = n
	}

	qs, err := vitex.NewQuerySet(vocab[0], vocab[1])
	if err != nil {
		t.Fatal(err)
	}
	// The mirror of the set's sources, updated under mu in lockstep with
	// the set; streams validate against the snapshot they observe.
	var mu sync.Mutex
	sources := []string{vocab[0], vocab[1]}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				counts := make(map[int]int64)
				stats, err := qs.Stream(strings.NewReader(doc), vitex.Options{CountOnly: true},
					func(sr vitex.SetResult) error {
						counts[sr.QueryIndex]++
						return nil
					})
				if err != nil {
					t.Errorf("stream during churn: %v", err)
					return
				}
				for qi := range counts {
					if qi < 0 || qi >= len(stats) {
						t.Errorf("QueryIndex %d outside snapshot of %d queries", qi, len(stats))
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 150; i++ {
		mu.Lock()
		switch {
		case len(sources) < 2 || rng.Intn(3) > 0:
			src := vocab[rng.Intn(len(vocab))]
			if _, err := qs.Add(vitex.MustCompile(src)); err != nil {
				t.Fatal(err)
			}
			sources = append(sources, src)
		default:
			i := rng.Intn(len(sources))
			if err := qs.Remove(i); err != nil {
				t.Fatal(err)
			}
			sources = append(sources[:i], sources[i+1:]...)
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()

	// Quiescent check: the final membership streams exactly its solo
	// counts.
	mu.Lock()
	final := append([]string(nil), sources...)
	mu.Unlock()
	counts, err := qs.Counts(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(final) {
		t.Fatalf("final set has %d queries, mirror has %d", len(counts), len(final))
	}
	for i, src := range final {
		if counts[i] != solo[src] {
			t.Fatalf("final query %d (%s) counted %d, solo %d", i, src, counts[i], solo[src])
		}
	}
}
