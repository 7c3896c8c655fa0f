package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/twigm"
	"repro/internal/xpath"
)

// metricsDoc exercises the churned vocabulary so streams route, deliver and
// push trie entries (the dispatch counters move, not just the churn ones).
const metricsDoc = `<feed>` +
	`<trade><symbol>ACME</symbol><price>10</price><volume>3</volume></trade>` +
	`<trade><symbol>GLOBEX</symbol><price>20</price><volume>7</volume></trade>` +
	`<news><title>x</title><body k="1">text</body></news>` +
	`</feed>`

// metricsSources overlap heavily on //feed/trade and //feed/news so churn
// drives the shared trie through grafts, prunes and compactions.
var metricsSources = []string{
	"//feed/trade/price",
	"//feed/trade/volume",
	"//feed/trade/symbol",
	"//feed/news/title",
	"//feed/news/body",
	"//feed/trade[symbol='ACME']/price",
	"//feed/news/body/@k",
	"//feed//volume",
	"//feed/trade/symbol[. = 'ACME']", // value groups churn too
	"//feed/trade/symbol[. = 'GLOBEX']",
}

// monotoneCounters extracts the cumulative (lifetime) counters of a Metrics
// snapshot, the ones that must never move backwards however the engine is
// churned; point-in-time gauges (Slots, Live, Garbage, TrieNodes, ...) are
// deliberately excluded.
func monotoneCounters(m Metrics) []int64 {
	return []int64{
		int64(m.Epoch),
		m.Compiles,
		m.Compactions,
		m.TrieGrafts,
		m.TriePrunes,
		m.TrieCompactions,
		m.Events,
		m.Deliveries,
		m.TriePushes,
	}
}

var monotoneNames = []string{
	"Epoch", "Compiles", "Compactions",
	"TrieGrafts", "TriePrunes", "TrieCompactions",
	"Events", "Deliveries", "TriePushes",
}

// TestMetricsConsistencyUnderChurn runs subscription churn and document
// traffic concurrently with a metrics poller and asserts the accounting
// stays coherent throughout:
//
//   - every cumulative counter is monotone non-decreasing across polls;
//   - gauges respect their structural bounds at every poll (anchored
//     machines never exceed live machines, garbage never goes negative);
//   - after quiescing, the survivors' trie state matches a fresh engine
//     compiled from the same queries — the incremental graft/prune/compact
//     path must land on exactly the state a from-scratch build produces;
//   - the steady state respects the compaction policy: trie garbage is
//     either under the compaction minimum or no larger than the live count.
func TestMetricsConsistencyUnderChurn(t *testing.T) {
	e := mustEngine(t, metricsSources[0], metricsSources[3])
	rng := rand.New(rand.NewSource(7))

	stop := make(chan struct{})    // quiesce signal for traffic and poller
	churned := make(chan struct{}) // churner exhausted its budget
	errs := make(chan error, 8)
	var wg sync.WaitGroup

	// Churner: the only mutator, so it can track membership locally, and
	// each machine's source.
	source := map[*twigm.Program]string{}
	for i, p := range e.Programs() {
		source[p] = []string{metricsSources[0], metricsSources[3]}[i]
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churned)
		live := append([]*twigm.Program(nil), e.Programs()...)
		for i := 0; i < 400; i++ {
			src := metricsSources[rng.Intn(len(metricsSources))]
			p, err := e.Add(xpath.MustParse(src))
			if err != nil {
				errs <- fmt.Errorf("Add: %w", err)
				return
			}
			source[p] = src
			live = append(live, p)
			for len(live) > 6 {
				victim := rng.Intn(len(live))
				if err := e.Remove(live[victim]); err != nil {
					errs <- fmt.Errorf("Remove: %w", err)
					return
				}
				live[victim] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}()

	// Traffic: two streamers, each evaluating the membership current at its
	// stream's start.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				opts := make([]twigm.Options, s.Len())
				if _, err := streamOpts(context.Background(), s, strings.NewReader(metricsDoc), opts); err != nil {
					errs <- fmt.Errorf("stream: %w", err)
					return
				}
			}
		}()
	}

	// Poller: cumulative counters only move forward; gauges stay in bounds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := monotoneCounters(e.Metrics())
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := e.Metrics()
			cur := monotoneCounters(m)
			for i := range cur {
				if cur[i] < prev[i] {
					errs <- fmt.Errorf("counter %s went backwards: %d -> %d", monotoneNames[i], prev[i], cur[i])
					return
				}
			}
			prev = cur
			if m.AnchoredMachines > m.Live {
				errs <- fmt.Errorf("AnchoredMachines %d > Live %d", m.AnchoredMachines, m.Live)
				return
			}
			if m.Garbage < 0 || m.TrieGarbage < 0 || m.TrieNodes < 0 {
				errs <- fmt.Errorf("negative gauge: %+v", m)
				return
			}
		}
	}()

	<-churned
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: the incremental path must have landed on a coherent steady
	// state. Some churn must actually have happened for the test to mean
	// anything.
	final := e.Metrics()
	if final.Compiles < 400 || final.TriePrunes == 0 {
		t.Fatalf("churn did not exercise the engine: %+v", final)
	}
	if final.TrieGarbage >= compactMinGarbage && final.TrieGarbage > final.TrieNodes {
		t.Errorf("trie compaction policy violated at steady state: garbage %d, live %d",
			final.TrieGarbage, final.TrieNodes)
	}

	// A fresh engine compiled from the survivors must agree with the churned
	// engine on everything structural: live machines, anchored machines, and
	// live trie nodes (trie garbage is history, so the fresh build has none).
	survivors := e.Programs()
	queries := make([]*xpath.Query, len(survivors))
	for i, p := range survivors {
		queries[i] = xpath.MustParse(source[p])
	}
	fresh, err := New(queries...)
	if err != nil {
		t.Fatal(err)
	}
	fm := fresh.Metrics()
	if fm.Live != final.Live {
		t.Errorf("Live: churned %d, fresh %d", final.Live, fm.Live)
	}
	if fm.AnchoredMachines != final.AnchoredMachines {
		t.Errorf("AnchoredMachines: churned %d, fresh %d", final.AnchoredMachines, fm.AnchoredMachines)
	}
	if fm.TrieNodes != final.TrieNodes {
		t.Errorf("TrieNodes: churned %d, fresh %d", final.TrieNodes, fm.TrieNodes)
	}
	if fm.TrieGarbage != 0 {
		t.Errorf("fresh engine has trie garbage: %d", fm.TrieGarbage)
	}
	if fm.ValueGroups != final.ValueGroups || fm.ValueKeyedMachines != final.ValueKeyedMachines {
		t.Errorf("value groups: churned %d of %d machines, fresh %d of %d",
			final.ValueGroups, final.ValueKeyedMachines, fm.ValueGroups, fm.ValueKeyedMachines)
	}

	// And the two engines produce identical results on the document.
	churnedOut := collect(t, e, metricsDoc, true)
	freshOut := collect(t, fresh, metricsDoc, true)
	for i := range churnedOut {
		if fmt.Sprint(churnedOut[i]) != fmt.Sprint(freshOut[i]) {
			t.Errorf("machine %d: churned %q, fresh %q", i, churnedOut[i], freshOut[i])
		}
	}
}

// TestEvalHistogramAlwaysOn: every stream with events lands one
// observation (its ns-per-event) in the evaluation histogram, with no
// opt-in required.
func TestEvalHistogramAlwaysOn(t *testing.T) {
	e := mustEngine(t, metricsSources[0], metricsSources[3])
	const streams = 5
	for i := 0; i < streams; i++ {
		if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(metricsDoc), make([]twigm.Options, e.Len())); err != nil {
			t.Fatal(err)
		}
	}
	s := e.EvalHistogram()
	if s.Count != streams {
		t.Fatalf("eval histogram count = %d, want %d", s.Count, streams)
	}
	if s.SumNs <= 0 {
		t.Fatalf("eval histogram sum = %d", s.SumNs)
	}
	m := e.Metrics()
	if m.Eval.Count != streams || m.Eval.P50Ns <= 0 {
		t.Fatalf("Metrics.Eval = %+v", m.Eval)
	}
}
