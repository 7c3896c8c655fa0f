package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
)

// TestGroupMembersShareOneRun: the members of a value group share one run,
// their host's — the lowest member's; every other member has none.
func TestGroupMembersShareOneRun(t *testing.T) {
	sources := []string{"//trade/symbol[. = 'ACME']", "//trade/price", "//trade/symbol[. = 'GLOBEX']", "//symbol[. = 'ACME']"}
	e := mustEngine(t, sources...)
	if m := e.Metrics(); m.ValueGroups != 2 || m.ValueKeyedMachines != 3 {
		t.Fatalf("metrics %+v, want 3 machines in 2 groups", m)
	}
	p := newPooledEval(e)
	if _, _, err := p.stream(context.Background(), staleDoc1, nil); err != nil {
		t.Fatal(err)
	}
	runs := p.runs()
	for slot, want := range []bool{true, true, false, true} {
		if (runs[slot] != nil) != want {
			t.Fatalf("slot %d (%s) has a run: %v", slot, sources[slot], runs[slot] != nil)
		}
	}
	if g := runs[0].Group(); g == nil || g.Size() != 2 {
		t.Fatalf("slot 0 evaluates group %+v, want both //trade/symbol members", g)
	}
	if g := runs[1].Group(); g != nil {
		t.Fatalf("an ordinary machine evaluates group %+v", g)
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
		out, _, err := streamAll(t, e, staleFeed(20), twigm.Options{})
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
// entry open; document 2 never wakes the group, so nothing resets its run,
// and nothing of it may show — then it wakes clean.
func TestIdleGroupAfterAbortedDocument(t *testing.T) {
	sources := []string{"//feed[. = 'x']", "//quote/bid", "//feed[. = '']", "//trade/symbol[. = 'ACME']"}
	t.Run(serial, func(t *testing.T) {
		p := newPooledEval(mustEngine(t, sources...))
		_, stats1 := assertFresh(t, p, sources, staleDoc1)
		if _, _, err := p.stream(context.Background(), staleDoc1[:len(staleDoc1)/2], nil); err == nil {
			t.Fatal("truncated document streamed cleanly")
		}
		open := func() int {
			n := 0
			for _, run := range p.runs() {
				if run != nil && run.Group() != nil {
					n += run.LiveEntries()
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

// TestFailedStreamStats: a stream an emit error stops returns the error
// after exactly the results before it, and every machine the document woke
// — a value group's members and ordinary machines alike — reports its
// counters through the event the stream failed on.
func TestFailedStreamStats(t *testing.T) {
	doc := `<r><a>x</a><a>x</a></r>`
	sources := []string{"//a[. = 'x']", "//a[. = 'x']", "//a[. = 'y']", "//a"}
	boom := fmt.Errorf("boom")
	var calls []int
	opts := make([]twigm.Options, len(sources))
	for d := range opts {
		opts[d].EmitFrom = func(d int, _ twigm.Result) error {
			calls = append(calls, d)
			return boom
		}
	}
	plan, finish := planOf(opts)
	e := mustEngine(t, sources...)
	ses := newSession(e)
	ses.scan.Reset(strings.NewReader(doc))
	scan, err := ses.stream(context.Background(), e, e.cur.Load(), ses.scan, plan)
	if err != boom {
		t.Fatalf("stream returned %v", err)
	}
	// The first </a> proves results for machines 0, 1 and 3; machine 0's is
	// the first delivered, and its error ends the stream.
	if !reflect.DeepEqual(calls, []int{0}) {
		t.Fatalf("EmitFrom called for machines %v, want [0]", calls)
	}
	for d, st := range finish(scan) {
		if st.Pops != 1 {
			t.Fatalf("machine %d (%s) counted %d pops, want 1: %+v", d, sources[d], st.Pops, st)
		}
	}
}

// TestBucketStatsMatchMemberStats: the rows Plan.Rows receives hold, for each
// machine, what the engine reported member by member before: the run's
// counters, or for a group member its literal's split of them
// (Run.MemberStats), with the scan's counters filled in; and the scan's
// counters alone for a machine the document did not wake. Portal-shaped
// groups, through the poisoning front-end.
func TestBucketStatsMatchMemberStats(t *testing.T) {
	sources := append(datagen.OverlapQueries(200, 0.9, 20, 4, 1),
		// Several members under one literal, and ordinary machines.
		"//channel//article/head/f3[. = 'v1']", "//channel//article/head/f3[. = 'v1']",
		"//article/head", "//channel//title")
	doc := datagen.Portal{Articles: 6, Fields: 20, Values: 4, Seed: 1}.String()
	t.Run(serial, func(t *testing.T) {
		e := mustEngine(t, sources...)
		ep := e.cur.Load()
		p := newPooledEval(e)
		rows := &machineRows{rows: make([]twigm.Stats, e.Len())}
		p.ses.scan.Reset(strings.NewReader(doc))
		scan, err := p.ses.stream(context.Background(), e, ep, saxtest.PoisonDriver(p.ses.scan), Plan{Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		// The member-by-member reports, from the runs the document woke.
		want := slices.Repeat([]twigm.Stats{scan}, e.Len())
		shared := 0
		member := func(slot int32, st twigm.Stats) {
			st.Events, st.Elements, st.MaxDepth = scan.Events, scan.Elements, scan.MaxDepth
			want[ep.liveIdx.At(int(slot))] = st
		}
		rt := &p.ses.rt
		for _, i := range rt.woken {
			run := rt.runs[i]
			g := run.Group()
			if g == nil {
				member(i, run.Stats())
				continue
			}
			for b := range int32(g.Buckets()) {
				if len(g.Members(b)) > 1 {
					shared++
				}
				for _, m := range g.Members(b) {
					member(m, run.MemberStats(b))
				}
			}
		}
		if shared == 0 {
			t.Fatal("no woken literal has several members: the test lost its subject")
		}
		if rows.made != 1 {
			t.Fatalf("rows made %d times, want once", rows.made)
		}
		got := rows.rows
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reported statistics differ from the member-by-member reports:\ngot  %v\nwant %v", got, want)
		}
	})
}
