package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/twigm"
)

// TestGroupedMachinesHaveNoRun: a value-keyed machine is evaluated by its
// group, serial and sharded; no session gives it a run of its own.
func TestGroupedMachinesHaveNoRun(t *testing.T) {
	sources := []string{"//trade/symbol[. = 'ACME']", "//trade/price", "//trade/symbol[. = 'GLOBEX']", "//symbol[. = 'ACME']"}
	e := mustEngine(t, sources...)
	if m := e.Metrics(); m.ValueGroups != 2 || m.ValueKeyedMachines != 3 {
		t.Fatalf("metrics %+v, want 3 machines in 2 groups", m)
	}
	for _, workers := range []int{0, 2} {
		p := newPooledEval(e, workers)
		if _, _, err := p.stream(context.Background(), staleDoc1, nil); err != nil {
			t.Fatal(err)
		}
		runs := p.runs()
		for slot, want := range []bool{false, true, false, false} {
			if (runs[slot] != nil) != want {
				t.Fatalf("workers=%d: slot %d (%s) has a run: %v", workers, slot, sources[slot], runs[slot] != nil)
			}
		}
	}
}

// TestGroupDeliveryCountsOnce: a thousand subscribers to one equality query
// cost the deliveries of one.
func TestGroupDeliveryCountsOnce(t *testing.T) {
	deliveries := func(n int) int64 {
		sources := make([]string, n)
		for i := range sources {
			sources[i] = "//trade/symbol[. = 'ACME']"
		}
		e := mustEngine(t, sources...)
		out, _, err := streamAll(t, e, staleFeed(20), twigm.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for d := range out {
			if len(out[d]) != 10 {
				t.Fatalf("subscriber %d of %d got %d results, want 10", d, n, len(out[d]))
			}
		}
		return e.Metrics().Deliveries
	}
	if one, many := deliveries(1), deliveries(1000); one != many {
		t.Fatalf("deliveries: %d for one subscriber, %d for 1,000", one, many)
	}
}

// TestIdleGroupAfterAbortedDocument: document 1 dies with a value group's
// entry open; document 2 never wakes the group, so nothing resets it, and
// nothing of it may show — then it wakes clean.
func TestIdleGroupAfterAbortedDocument(t *testing.T) {
	sources := []string{"//feed[. = 'x']", "//quote/bid", "//feed[. = '']", "//trade/symbol[. = 'ACME']"}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := newPooledEval(mustEngine(t, sources...), workers)
			_, stats1 := assertFresh(t, p, sources, staleDoc1)
			if _, _, err := p.stream(context.Background(), staleDoc1[:len(staleDoc1)/2], nil); err == nil {
				t.Fatal("truncated document streamed cleanly")
			}
			open := func() int {
				n := 0
				for _, rt := range p.routers() {
					for _, g := range rt.groupRuns {
						if g != nil {
							n += g.LiveEntries()
						}
					}
				}
				return n
			}
			if open() == 0 {
				t.Fatal("the aborted document left no open group entry: the test lost its subject")
			}
			results2, stats2 := assertFresh(t, p, sources, staleDoc2)
			assertIdleAfterWoken(t, stats1, stats2, results2)
			if open() == 0 {
				t.Fatal("an idle group was reset: document 2 paid for a group it never woke")
			}
			assertFresh(t, p, sources, staleDoc1)
		})
	}
}

// TestGroupStatsOnFailedStream: a stream an emit error stops reports, for
// each member of a group, what its own machine would have counted — the
// members after the failing one have not seen the event it failed on.
func TestGroupStatsOnFailedStream(t *testing.T) {
	doc := `<r><a>x</a><a>x</a></r>`
	sources := []string{"//a[. = 'x']", "//a[. = 'x']", "//a[. = 'y']"}
	boom := fmt.Errorf("boom")
	opts := make([]twigm.Options, len(sources))
	for d := range opts {
		opts[d].EmitFrom = func(int, twigm.Result) error { return boom }
	}
	plan, finish := planOf(opts)
	e := mustEngine(t, sources...)
	ses := newSession(e)
	ses.scan.Reset(strings.NewReader(doc))
	scan, err := ses.stream(context.Background(), e, e.cur.Load(), ses.scan, plan)
	if err != boom {
		t.Fatalf("stream returned %v", err)
	}
	stats := finish(scan)
	// Machine 0 emitted the first <a> and failed; 1 and 2 never saw its end.
	want := []int64{1, 0, 0}
	for d, pops := range want {
		if stats[d].Pops != pops {
			t.Fatalf("machine %d counted %d pops, want %d: %+v", d, stats[d].Pops, pops, stats)
		}
	}
	if !reflect.DeepEqual(stats[1], stats[2]) || stats[1].Pushes != 1 {
		t.Fatalf("members behind the failure: %+v, %+v", stats[1], stats[2])
	}
}
