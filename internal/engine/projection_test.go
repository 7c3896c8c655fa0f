package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// sessionRun is what one evaluation on a fresh session produced: the
// emission sequence, one Stats per machine, the scan's counters and error, and
// what the session handled and delivered.
type sessionRun struct {
	out        []emission
	stats      []twigm.Stats
	scan       twigm.Stats
	err        error
	routed     int64 // events the session handled
	deliveries int64
	ends       int64 // deliveries of end tags
}

// counted is the front-end of streamSession: the poisoning driver, with every
// event it hands the session counted, one event per call, and each end tag's
// deliveries counted off the router before it is handled.
type counted struct {
	sax.Driver
	ses *session
	run *sessionRun
}

func (c counted) Run(h sax.Handler) error {
	return c.Driver.Run(sax.PerEvent(func(ev *sax.Event) error {
		c.run.routed++
		if ev.Kind == sax.EndElement && ev.Depth < len(c.ses.rt.pushed) {
			c.run.ends += int64(len(c.ses.rt.pushed[ev.Depth]))
		}
		return h.HandleBatch([]sax.Event{*ev})
	}))
}

// streamSession evaluates s's machines over r on a fresh session through the
// poisoning front-end: projected as Stream projects it or, with full, with
// every scanned event in the stream. emit, when non-nil, is each result's
// consumer after it is recorded.
func streamSession(ctx context.Context, s Snapshot, r io.Reader, opts twigm.Options, full bool, emit func(d int, r twigm.Result) error) sessionRun {
	ses := newSession(s.eng)
	var run sessionRun
	run.stats = make([]twigm.Stats, s.Len())
	plan := Plan{Options: opts, Rows: &machineRows{rows: run.stats}}
	plan.Options.EmitFrom = func(d int, r twigm.Result) error {
		run.out = append(run.out, emission{mach: int32(d), res: r})
		if emit != nil {
			return emit(d, r)
		}
		return nil
	}
	ses.scan.Reset(r)
	if !full {
		ses.scan.Project(s.ep.projection())
	}
	run.scan, run.err = ses.stream(ctx, s.eng, s.ep, counted{saxtest.PoisonDriver(ses.scan), ses, &run}, plan)
	run.deliveries = ses.rt.deliveries
	return run
}

// assertSameRun fails unless a projected and a full evaluation agree on
// everything but what the session handled.
func assertSameRun(t *testing.T, name string, got, want sessionRun) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error: projected %v, full %v", name, got.err, want.err)
	}
	if !reflect.DeepEqual(got.out, want.out) {
		t.Fatalf("%s: emissions diverge\nprojected %+v\nfull      %+v", name, got.out, want.out)
	}
	if !reflect.DeepEqual(got.stats, want.stats) || got.scan != want.scan {
		t.Fatalf("%s: statistics diverge\nprojected %+v %+v\nfull      %+v %+v", name, got.scan, got.stats, want.scan, want.stats)
	}
}

// TestProjectedProteinCounts pins what projection and depth-keyed end routing
// save on the lib_protein_scan benchmark cell (512 KB protein document, seed
// 1, its three queries): the scan counts every event, as without projection,
// while the session handles about a third of them, and every end tag it
// delivers pops. No query of the cell names an element twice, so a delivered
// end tag pops exactly one entry, and end-tag deliveries equal pops.
func TestProjectedProteinCounts(t *testing.T) {
	doc := datagen.Protein{TargetBytes: 1 << 19, Seed: 1}.String()
	e := mustEngine(t, datagen.PaperProteinQuery,
		"//ProteinEntry[organism/source='Homo sapiens']/protein/name",
		"//reference[year>1995]/authors/author")
	s := e.Snapshot()
	if s.ep.projection() == nil {
		t.Fatal("the cell's queries turn projection off")
	}
	on := streamSession(context.Background(), s, strings.NewReader(doc), twigm.Options{}, false, nil)
	off := streamSession(context.Background(), s, strings.NewReader(doc), twigm.Options{}, true, nil)
	assertSameRun(t, "protein", on, off)
	var pops int64
	for _, st := range on.stats {
		pops += st.Pops
	}
	t.Logf("scanned %d events; handled %d projected, %d full; deliveries %d projected, %d full; end-tag deliveries %d, pops %d",
		on.scan.Events, on.routed, off.routed, on.deliveries, off.deliveries, on.ends, pops)
	switch {
	case off.routed != off.scan.Events:
		t.Fatalf("the full stream handled %d events of %d scanned", off.routed, off.scan.Events)
	case on.routed > 17000:
		t.Fatalf("the projected stream handled %d events, want at most 17,000", on.routed)
	case on.deliveries > 12500:
		t.Fatalf("%d deliveries, want at most 12,500", on.deliveries)
	case on.ends != pops || off.ends != pops:
		t.Fatalf("end-tag deliveries: %d projected, %d full, for %d pops", on.ends, off.ends, pops)
	}
}

// TestProjectionKeepsCountsOnFailure: when the consumer fails mid-document —
// an emit error, or a cancellation from inside one — the scan's counters stop
// at the event the evaluation stopped at, as they do with every event in the
// stream, whatever the projection omitted before and after it. The document
// spans several batches, and the evaluation fails at every one of its results
// in turn, so the last event handled falls anywhere in a batch, its last
// included.
func TestProjectionKeepsCountsOnFailure(t *testing.T) {
	doc := staleFeed(100)
	e := mustEngine(t, "//trade[symbol = 'ACME']/price", "//volume/text()")
	s := e.Snapshot()
	results := len(streamSession(context.Background(), s, strings.NewReader(doc), twigm.Options{}, false, nil).out)
	boom := errors.New("boom")
	for failAt := 1; failAt <= results; failAt++ {
		for _, cancelling := range []bool{false, true} {
			run := func(full bool) sessionRun {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				n := 0
				return streamSession(ctx, s, strings.NewReader(doc), twigm.Options{}, full, func(int, twigm.Result) error {
					if n++; n == failAt {
						if cancelling {
							cancel()
							return nil
						}
						return boom
					}
					return nil
				})
			}
			on, off := run(false), run(true)
			name := fmt.Sprintf("failure at result %d, cancelling %v", failAt, cancelling)
			if on.err == nil {
				t.Fatalf("%s: the evaluation did not fail", name)
			}
			assertSameRun(t, name, on, off)
		}
	}
}

// TestProjectionFollowsTheEpoch: an Add that names an element the previous
// epoch projected out takes effect for the next document, while a session
// in the middle of a document keeps the projection of the epoch it started
// on; both match their epoch's full stream.
func TestProjectionFollowsTheEpoch(t *testing.T) {
	doc := staleFeed(300)
	e := mustEngine(t, "//trade[symbol = 'ACME']/price")
	old := e.Snapshot()
	if old.ep.projection() == nil {
		t.Fatal("the first epoch does not project")
	}
	pr, pw := io.Pipe()
	done := make(chan sessionRun)
	go func() {
		done <- streamSession(context.Background(), old, pr, twigm.Options{}, false, nil)
	}()
	half := len(doc) / 2
	if _, err := io.WriteString(pw, doc[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(xpath.MustParse("//trade[volume > 3]/volume")); err != nil {
		t.Fatal(err)
	}
	cur := e.Snapshot()
	if keep, root := cur.ep.Tag(e.syms.ID("volume")); !keep || !root {
		t.Fatalf("the new epoch keeps volume %v, as a value root %v", keep, root)
	}
	// Another document runs on the new epoch while the first is mid-stream.
	next := streamSession(context.Background(), cur, strings.NewReader(doc), twigm.Options{}, false, nil)
	assertSameRun(t, "new epoch", next, streamSession(context.Background(), cur, strings.NewReader(doc), twigm.Options{}, true, nil))
	if len(byMachineOf(next.out, 1)) == 0 {
		t.Fatal("the added query matched nothing")
	}
	if _, err := io.WriteString(pw, doc[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	assertSameRun(t, "old epoch mid-document", <-done, streamSession(context.Background(), old, strings.NewReader(doc), twigm.Options{}, true, nil))
	// And through the pool: Stream projects each document by its snapshot.
	got, _ := streamValues(t, cur, doc)
	want := make([][]string, cur.Len())
	for _, em := range next.out {
		want[em.mach] = append(want[em.mach], em.res.Value)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled stream on the new epoch: %q, want %q", got, want)
	}
}

// byMachineOf returns the emissions of machine d.
func byMachineOf(out []emission, d int32) []emission {
	var mine []emission
	for _, em := range out {
		if em.mach == d {
			mine = append(mine, em)
		}
	}
	return mine
}

// TestWildcardTurnsProjectionOff is the arm where projection must not engage:
// adding //* to a set makes every event observable, and the session handles
// every event scanned; removing it engages projection again.
func TestWildcardTurnsProjectionOff(t *testing.T) {
	doc := staleFeed(50)
	e := mustEngine(t, "//trade[symbol = 'ACME']/price")
	handled := func() (routed, scanned int64) {
		run := streamSession(context.Background(), e.Snapshot(), strings.NewReader(doc), twigm.Options{}, false, nil)
		return run.routed, run.scan.Events
	}
	if routed, scanned := handled(); routed >= scanned {
		t.Fatalf("projected: %d events handled of %d scanned", routed, scanned)
	}
	star, err := e.Add(xpath.MustParse("//*"))
	if err != nil {
		t.Fatal(err)
	}
	if routed, scanned := handled(); routed != scanned {
		t.Fatalf("with //*: %d events handled of %d scanned", routed, scanned)
	}
	if err := e.Remove(star); err != nil {
		t.Fatal(err)
	}
	if routed, scanned := handled(); routed >= scanned {
		t.Fatalf("after removing //*: %d events handled of %d scanned", routed, scanned)
	}
	for _, src := range []string{"//text()", "//a/*", "//*[. = 'x']", "//a//*/b", "/*/a"} {
		if mustEngine(t, src).Snapshot().ep.projection() != nil {
			t.Fatalf("%s: projection on", src)
		}
	}
	for _, src := range []string{"//a/text()", "//a//text()", "/r/text()", "//a/@k", "//@k", "/r/a[b = 'x']"} {
		if mustEngine(t, src).Snapshot().ep.projection() == nil {
			t.Fatalf("%s: projection off", src)
		}
	}
}
