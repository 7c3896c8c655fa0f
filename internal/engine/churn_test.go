package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/twigm"
	"repro/internal/xpath"
)

// churnDoc exercises a spread of element names so most churned queries match
// something.
const churnDoc = `<feed>` +
	`<trade><symbol>ACME</symbol><price>10</price><volume>3</volume></trade>` +
	`<trade><symbol>GLOBEX</symbol><price>20</price><volume>7</volume></trade>` +
	`<news><title>x</title><body k="1">text</body></news>` +
	`</feed>`

// streamValues evaluates a snapshot, collecting per-machine values and stats.
func streamValues(t *testing.T, s Snapshot, doc string) ([][]string, []twigm.Stats) {
	t.Helper()
	out := make([][]string, s.Len())
	opts := make([]twigm.Options, s.Len())
	for i := range opts {
		idx := i
		opts[i] = twigm.Options{EmitFrom: func(_ int, r twigm.Result) error {
			out[idx] = append(out[idx], r.Value)
			return nil
		}}
	}
	stats, err := streamOpts(context.Background(), s, strings.NewReader(doc), opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// TestAddCompilesOnlyTheNewQuery is the incremental-update acceptance
// property: adding one query to a 100-query live set compiles exactly one
// machine — process-wide, not just per-engine — and leaves the other 100
// machine objects untouched (pointer identity).
func TestAddCompilesOnlyTheNewQuery(t *testing.T) {
	sources := make([]string, 100)
	for i := range sources {
		sources[i] = fmt.Sprintf("//sub%d[child%d]/leaf%d", i, i, i)
	}
	e := mustEngine(t, sources...)
	before := e.Snapshot().Programs()
	newQ := xpath.MustParse("//trade[symbol='ACME']/price")

	m0 := e.Metrics()
	global0 := twigm.CompileCount()
	if _, err := e.Add(newQ); err != nil {
		t.Fatal(err)
	}
	m1 := e.Metrics()
	if d := m1.Compiles - m0.Compiles; d != 1 {
		t.Fatalf("engine compiled %d machines for one Add", d)
	}
	if d := twigm.CompileCount() - global0; d != 1 {
		t.Fatalf("process compiled %d machines for one Add", d)
	}
	after := e.Snapshot().Programs()
	if len(after) != 101 {
		t.Fatalf("len = %d", len(after))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("machine %d was rebuilt by Add", i)
		}
	}
	// And the added machine evaluates.
	out, _ := streamValues(t, e.Snapshot(), churnDoc)
	if !reflect.DeepEqual(out[100], []string{"<price>10</price>"}) {
		t.Fatalf("added machine results = %q", out[100])
	}
}

// TestSnapshotIsolation: a snapshot taken before a mutation evaluates the
// old membership even after Add/Remove publish new epochs.
func TestSnapshotIsolation(t *testing.T) {
	e := mustEngine(t, "//trade/price", "//news/title")
	old := e.Snapshot()
	if _, err := e.Add(xpath.MustParse("//trade/volume")); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(e.Snapshot().Programs()[0]); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 2 || e.Len() != 2 {
		t.Fatalf("old len %d, new len %d", old.Len(), e.Len())
	}
	outOld, _ := streamValues(t, old, churnDoc)
	if len(outOld[0]) != 2 || len(outOld[1]) != 1 {
		t.Fatalf("old snapshot results = %q", outOld)
	}
	outNew, _ := streamValues(t, e.Snapshot(), churnDoc)
	if !reflect.DeepEqual(outNew[0], []string{"<title>x</title>"}) {
		t.Fatalf("new membership query 0 = %q", outNew[0])
	}
	if len(outNew[1]) != 2 {
		t.Fatalf("new membership query 1 = %q", outNew[1])
	}
}

// TestScannerResolvesNamesAddedAfterCaching: pooled sessions cache
// name->symbol resolutions in their scanners. A name unknown during one
// stream can become a standing query's subscription via Add; the next stream
// through the same pooled session must route it.
func TestScannerResolvesNamesAddedAfterCaching(t *testing.T) {
	e := mustEngine(t, "//trade/price")
	// First stream caches "news", "title", "body", "k" as unknown in the
	// pooled session's scanner.
	streamValues(t, e.Snapshot(), churnDoc)
	if _, err := e.Add(xpath.MustParse("//news/title")); err != nil {
		t.Fatal(err)
	}
	out, _ := streamValues(t, e.Snapshot(), churnDoc)
	if !reflect.DeepEqual(out[1], []string{"<title>x</title>"}) {
		t.Fatalf("query added after cache warm-up found %q", out[1])
	}
	// Same property for attribute names.
	if _, err := e.Add(xpath.MustParse("//body/@k")); err != nil {
		t.Fatal(err)
	}
	out, _ = streamValues(t, e.Snapshot(), churnDoc)
	if !reflect.DeepEqual(out[2], []string{"1"}) {
		t.Fatalf("attribute query added after cache warm-up found %q", out[2])
	}
}

// TestRemoveTombstonesAndCompacts: removals tombstone slots without
// recompiling survivors; once tombstones outnumber survivors (past the
// minimum), a compaction pass reclaims the slots — still without compiling
// anything — and evaluation is unaffected throughout.
func TestRemoveTombstonesAndCompacts(t *testing.T) {
	n := 3 * compactMinGarbage
	sources := make([]string, n)
	for i := range sources {
		sources[i] = fmt.Sprintf("//sub%d", i)
	}
	keep := "//trade/price"
	sources = append(sources, keep)
	e := mustEngine(t, sources...)
	keepProg := e.Snapshot().Programs()[n]

	compiles0 := e.Metrics().Compiles
	progs := e.Snapshot().Programs()
	for i := 0; i < n; i++ {
		if err := e.Remove(progs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.Compiles != compiles0 {
		t.Fatalf("removal compiled %d machines", m.Compiles-compiles0)
	}
	if m.Compactions == 0 {
		t.Fatalf("no compaction after %d removals: %+v", n, m)
	}
	// The compaction invariant bounds residual garbage: below the minimum
	// or not exceeding the live count.
	if m.Live != 1 || m.Slots != m.Live+m.Garbage ||
		(m.Garbage >= compactMinGarbage && m.Garbage > m.Live) {
		t.Fatalf("post-compaction occupancy: %+v", m)
	}
	if e.Snapshot().Programs()[0] != keepProg {
		t.Fatal("survivor was rebuilt by compaction")
	}
	out, _ := streamValues(t, e.Snapshot(), churnDoc)
	if len(out[0]) != 2 {
		t.Fatalf("survivor results after compaction = %q", out[0])
	}
	// Removing the last machine leaves a working empty engine.
	if err := e.Remove(keepProg); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(keepProg); err == nil {
		t.Fatal("double Remove succeeded")
	}
	if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(churnDoc), nil); err != nil {
		t.Fatalf("empty engine stream: %v", err)
	}
}

// TestReplaceReusesSlot: Replace swaps the machine in place — same dense
// position, one compile, no effect on neighbours.
func TestReplaceReusesSlot(t *testing.T) {
	e := mustEngine(t, "//trade/price", "//sub0", "//news/title")
	before := e.Snapshot().Programs()
	compiles0 := e.Metrics().Compiles
	p, err := e.Replace(before[1], xpath.MustParse("//trade/volume"))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Metrics().Compiles - compiles0; d != 1 {
		t.Fatalf("Replace compiled %d machines", d)
	}
	after := e.Snapshot().Programs()
	if after[0] != before[0] || after[2] != before[2] || after[1] != p {
		t.Fatal("Replace disturbed neighbouring slots")
	}
	out, _ := streamValues(t, e.Snapshot(), churnDoc)
	if !reflect.DeepEqual(out[1], []string{"<volume>3</volume>", "<volume>7</volume>"}) {
		t.Fatalf("replaced machine results = %q", out[1])
	}
	if _, err := e.Replace(before[1], xpath.MustParse("//x")); err == nil {
		t.Fatal("Replace of a removed machine succeeded")
	}
}

// TestChurnedEngineMatchesFresh drives a random Add/Remove/Replace walk and,
// after every mutation, checks the churned engine's full output — values and
// stats — against a freshly compiled engine over the
// same membership.
func TestChurnedEngineMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vocab := []string{
		"//trade/price", "//trade/volume", "//trade[symbol='ACME']/price",
		"//news/title", "//news//body", "//body/@k", "//title/text()",
		"//*[@k]", "//feed//trade", "//absent//nothing",
	}
	e := mustEngine(t)
	var sources []string
	steps := 60
	if testing.Short() {
		steps = 15
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(sources) == 0: // Add
			src := vocab[rng.Intn(len(vocab))]
			if _, err := e.Add(xpath.MustParse(src)); err != nil {
				t.Fatal(err)
			}
			sources = append(sources, src)
		case op == 1: // Remove
			i := rng.Intn(len(sources))
			if err := e.Remove(e.Snapshot().Programs()[i]); err != nil {
				t.Fatal(err)
			}
			sources = append(sources[:i], sources[i+1:]...)
		default: // Replace
			i := rng.Intn(len(sources))
			src := vocab[rng.Intn(len(vocab))]
			if _, err := e.Replace(e.Snapshot().Programs()[i], xpath.MustParse(src)); err != nil {
				t.Fatal(err)
			}
			sources[i] = src
		}
		fresh := mustEngine(t, sources...)
		churnOut, churnStats := streamValues(t, e.Snapshot(), churnDoc)
		freshOut, freshStats := streamValues(t, fresh.Snapshot(), churnDoc)
		if !reflect.DeepEqual(churnOut, freshOut) {
			t.Fatalf("step %d: churned %q, fresh %q (sources %q)", step, churnOut, freshOut, sources)
		}
		if !reflect.DeepEqual(churnStats, freshStats) {
			t.Fatalf("step %d: stats diverge\nchurned %+v\nfresh   %+v", step, churnStats, freshStats)
		}
	}
}

// TestConcurrentChurnAndStreams runs mutations concurrently with three
// streams (the concurrency contract of the live engine; the race
// detector is the other half of this test). Each stream must be internally
// consistent with the snapshot it captured: one stats entry per machine of
// that snapshot.
func TestConcurrentChurnAndStreams(t *testing.T) {
	e := mustEngine(t, "//trade/price", "//news/title", "//trade/volume")
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
				s := e.Snapshot()
				opts := make([]twigm.Options, s.Len())
				if _, err := streamOpts(context.Background(), s, strings.NewReader(churnDoc), opts); err != nil {
					t.Errorf("stream during churn: %v", err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"//trade/price", "//body/@k", "//news//body", "//feed//trade", "//sub1[sub2]"}
	for i := 0; i < 200; i++ {
		if progs := e.Snapshot().Programs(); len(progs) > 2 && rng.Intn(2) == 0 {
			if err := e.Remove(progs[rng.Intn(len(progs))]); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := e.Add(xpath.MustParse(vocab[rng.Intn(len(vocab))])); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
