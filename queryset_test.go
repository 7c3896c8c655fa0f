package vitex

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

func TestQuerySetSingleScan(t *testing.T) {
	qs, err := NewQuerySet(
		"//trade[symbol='ACME']/price",
		"//trade[symbol='GLOBEX']/volume",
		"//trade/@seq",
	)
	if err != nil {
		t.Fatal(err)
	}
	doc := datagen.Ticker{Trades: 200, Seed: 3}.String()
	perQuery := make([]int, qs.Len())
	stats, err := qs.Stream(strings.NewReader(doc), Options{}, func(sr SetResult) error {
		perQuery[sr.QueryIndex]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every query must agree with its individual evaluation.
	for i := 0; i < qs.Len(); i++ {
		solo, err := qs.Query(i).Count(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if int64(perQuery[i]) != solo {
			t.Fatalf("query %d: set found %d, solo found %d", i, perQuery[i], solo)
		}
	}
	if perQuery[2] != 200 { // every trade has @seq
		t.Fatalf("@seq count = %d", perQuery[2])
	}
	if len(stats) != 3 || stats[0].Events != stats[1].Events {
		t.Fatalf("per-query stats inconsistent: %+v", stats)
	}
}

func TestQuerySetCounts(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b", "//c")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := qs.Counts(strings.NewReader("<r><a/><b/><a/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetCompileError(t *testing.T) {
	if _, err := NewQuerySet("//a", "bad["); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestQuerySetAdd(t *testing.T) {
	qs, err := NewQuerySet("//a")
	if err != nil {
		t.Fatal(err)
	}
	i, err := qs.Add(MustCompile("//b"))
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 || qs.Len() != 2 {
		t.Fatalf("index = %d, len = %d", i, qs.Len())
	}
	counts, err := qs.Counts(strings.NewReader("<r><b/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetRemove(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b", "//c")
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Remove(1); err != nil {
		t.Fatal(err)
	}
	if qs.Len() != 2 {
		t.Fatalf("len = %d", qs.Len())
	}
	// Indexes shift down: //c is now query 1.
	counts, err := qs.Counts(strings.NewReader("<r><a/><b/><c/><c/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if err := qs.Remove(5); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestQuerySetReplace(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b")
	if err != nil {
		t.Fatal(err)
	}
	// Same branch count: slot reuse path.
	if err := qs.Replace(0, MustCompile("//c")); err != nil {
		t.Fatal(err)
	}
	// Different branch count: remove+add path.
	if err := qs.Replace(1, MustCompile("//a | //b")); err != nil {
		t.Fatal(err)
	}
	counts, err := qs.Counts(strings.NewReader("<r><a/><b/><c/><c/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if qs.Query(0).Source() != "//c" {
		t.Fatalf("query 0 = %q", qs.Query(0).Source())
	}
}

// TestQuerySetAddCompilesOnlyTheNewQuery is the public-API face of the
// incremental-churn guarantee: one Add to a 100-query live set compiles
// exactly the added query's machines, process-wide.
func TestQuerySetAddCompilesOnlyTheNewQuery(t *testing.T) {
	qs, err := NewQuerySet(datagen.SparseTickerQueries(10, 90)...)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("//trade[symbol='CHURNX']/price | //trade[symbol='CHURNY']/volume")
	global0 := twigm.CompileCount()
	engine0 := qs.Metrics().Compiles
	if _, err := qs.Add(q); err != nil {
		t.Fatal(err)
	}
	if d := twigm.CompileCount() - global0; d != 2 { // one per union branch
		t.Fatalf("Add compiled %d machines process-wide, want 2", d)
	}
	if d := qs.Metrics().Compiles - engine0; d != 2 {
		t.Fatalf("Add compiled %d machines in the set engine, want 2", d)
	}
}

// TestChurnCheaperThanRecompile pins the acceptance floor in the unit the
// cost is paid in: an incremental Add on a 100-query live set compiles one
// program and a Remove none, where a full engine rebuild (the pre-epoch cost
// of any mutation) compiles all 101. The wall-clock ratio, around two orders
// of magnitude, is logged; BenchmarkQuerySetChurn gives the precise numbers.
func TestChurnCheaperThanRecompile(t *testing.T) {
	sources := datagen.SparseTickerQueries(10, 90)
	qs, err := NewQuerySet(sources...)
	if err != nil {
		t.Fatal(err)
	}
	extra := MustCompile("//trade[symbol='CHURNX']/price")
	var parsed []*xpath.Query
	for _, src := range append(append([]string(nil), sources...), extra.Source()) {
		qs, err := xpath.ParseUnion(src)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, qs...)
	}

	compiles0 := qs.Metrics().Compiles
	start := time.Now()
	idx, err := qs.Add(extra)
	if err != nil {
		t.Fatal(err)
	}
	added := qs.Metrics().Compiles
	if err := qs.Remove(idx); err != nil {
		t.Fatal(err)
	}
	incremental := time.Since(start)
	if d := added - compiles0; d != 1 {
		t.Fatalf("Add compiled %d programs, want 1", d)
	}
	if d := qs.Metrics().Compiles - added; d != 0 {
		t.Fatalf("Remove compiled %d programs, want 0", d)
	}

	start = time.Now()
	rebuilt, err := engine.New(parsed...)
	if err != nil {
		t.Fatal(err)
	}
	recompile := time.Since(start)
	if n := rebuilt.Metrics().Compiles; n != int64(len(parsed)) {
		t.Fatalf("rebuild compiled %d programs, want %d", n, len(parsed))
	}
	t.Logf("Add+Remove %v vs rebuild %v (%d programs)", incremental, recompile, len(parsed))
}

func TestQuerySetEmitError(t *testing.T) {
	qs, err := NewQuerySet("//a")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err = qs.Stream(strings.NewReader("<r><a/><a/></r>"), Options{}, func(SetResult) error {
		n++
		return &strError{"stop"}
	})
	if err == nil || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}

func TestQuerySetOrdered(t *testing.T) {
	qs, err := NewQuerySet("//a[p]/b")
	if err != nil {
		t.Fatal(err)
	}
	doc := "<r><a><b>1</b><b>2</b><p/></a></r>"
	var values []string
	_, err = qs.Stream(strings.NewReader(doc), Options{Ordered: true}, func(sr SetResult) error {
		values = append(values, sr.Value)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 || values[0] != "<b>1</b>" || values[1] != "<b>2</b>" {
		t.Fatalf("values = %q", values)
	}
}

func TestQuerySetPaperWorkload(t *testing.T) {
	qs, err := NewQuerySet(
		datagen.PaperQuery,
		"//section//table//cell",
		"//table[position]",
		"//author",
	)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := qs.Counts(strings.NewReader(datagen.PaperFigure1))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

// TestIdleSubscriptionsAreFree is the scale guard of lazy session reset: a
// document that wakes no machine costs the same through 1,000 standing
// queries as through 10,000 — the same number of allocations, and not one
// machine delivery. Through Evaluate the bytes are the same too; through
// Stream they differ by the []Stats it returns (one row per query). Counts are
// the least over the runs (leastAlloc).
func TestIdleSubscriptionsAreFree(t *testing.T) {
	const doc = `<feed><trade seq="1"><symbol>ACME</symbol><price>10</price></trade></feed>`
	const runs = 20
	// One P, as testing.AllocsPerRun measures: a sync.Pool keeps one private
	// slot per P, so on several the pooled session is rebuilt whenever the
	// goroutine lands on a P that has not streamed yet.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The runtime rounds an allocation of the rows' size up to whole 8 KB
	// pages.
	const page = 8192
	// Distinct dead-vocabulary queries, three names each: 30,000 names at
	// 10,000 queries, which building the set must not pay for per query.
	sets := make(map[int]*QuerySet)
	for _, n := range []int{1000, 10000} {
		qs, err := NewQuerySet(datagen.SparseTickerQueries(0, n)...)
		if err != nil {
			t.Fatal(err)
		}
		sets[n] = qs
	}
	for _, arm := range []struct {
		name string
		// allowed is the growth in bytes per document from 1,000 queries to
		// 10,000 beyond one page.
		allowed uint64
		stream  func(qs *QuerySet, r *strings.Reader, n int)
	}{
		{"Stream", uint64(10000-1000) * uint64(unsafe.Sizeof(Stats{})), func(qs *QuerySet, rd *strings.Reader, n int) {
			stats, err := qs.Stream(rd, Options{}, func(sr SetResult) error {
				t.Errorf("dead-vocabulary query %d matched", sr.QueryIndex)
				return nil
			})
			if err != nil || len(stats) != n {
				t.Fatalf("%d queries: %d stats, err %v", n, len(stats), err)
			}
			if scan := (Stats{Events: stats[0].Events, Elements: 4, MaxDepth: 3}); stats[0] != scan || stats[n-1] != scan {
				t.Fatalf("%d queries: an idle query reports work: %+v, %+v", n, stats[0], stats[n-1])
			}
		}},
		{"Evaluate", 0, func(qs *QuerySet, rd *strings.Reader, n int) {
			scan, err := qs.Evaluate(rd, Options{}, func(sr SetResult) error {
				t.Errorf("dead-vocabulary query %d matched", sr.QueryIndex)
				return nil
			})
			if err != nil || scan != (Stats{Events: scan.Events, Elements: 4, MaxDepth: 3}) {
				t.Fatalf("%d queries: scan %+v, err %v", n, scan, err)
			}
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			measure := func(n int) (allocs, bytes uint64) {
				qs := sets[n]
				rd := strings.NewReader(doc)
				stream := func() {
					rd.Reset(doc)
					arm.stream(qs, rd, n)
				}
				stream() // warm the pooled session and the scanner
				before := qs.Metrics().Deliveries
				allocs, bytes = leastAlloc(runs, stream)
				if d := qs.Metrics().Deliveries - before; d != 0 {
					t.Fatalf("%d queries: %d machine deliveries for documents that wake nothing", n, d)
				}
				return allocs, bytes
			}
			allocs1k, bytes1k := measure(1000)
			allocs10k, bytes10k := measure(10000)
			if raceEnabled {
				return // deliveries and statistics were checked; allocation counts are not meaningful
			}
			if allocs1k != allocs10k {
				t.Fatalf("allocations per document grow with the standing set: %v at 1,000 queries, %v at 10,000", allocs1k, allocs10k)
			}
			if bytes10k > bytes1k+arm.allowed+page {
				t.Fatalf("bytes per document grow by more than %d: %d at 1,000 queries, %d at 10,000",
					arm.allowed+page, bytes1k, bytes10k)
			}
			if arm.allowed == 0 && bytes1k > bytes10k+page {
				t.Fatalf("bytes per document differ by more than a page: %d at 1,000 queries, %d at 10,000", bytes1k, bytes10k)
			}
		})
	}
}

// TestBuildCostPerQueryIsFlat: building a set costs the same per query at
// 10,000 queries as at 1,000, although the dead vocabulary grows the shared
// symbol table to 30,000 names. Per-program dispatch tables sized by the
// shared table made it 1,000 times that name count per program: quadratic.
func TestBuildCostPerQueryIsFlat(t *testing.T) {
	perQuery := func(n int) float64 {
		sources := datagen.SparseTickerQueries(0, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		qs, err := NewQuerySet(sources...)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(qs)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	small := perQuery(1000)
	// 2,000 first: a quadratic build shows there already, and would take
	// gigabytes at 10,000.
	for _, n := range []int{2000, 10000} {
		if large := perQuery(n); large > 1.5*small {
			t.Fatalf("bytes allocated per query grow with the set: %.0f at 1,000 queries, %.0f at %d", small, large, n)
		}
	}
}

// standingCost returns the live heap objects and bytes per query that a set
// of sources holds once built: the least over reps builds, each measured
// after a collection, with the sources themselves made beforehand.
func standingCost(sources []string, reps int) (objects, bytes float64) {
	objects, bytes = math.MaxFloat64, math.MaxFloat64
	var m0, m1 runtime.MemStats
	for range reps {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		qs, err := NewQuerySet(sources...)
		if err != nil {
			panic(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(qs)
		n := float64(len(sources))
		objects = min(objects, (float64(m1.HeapObjects)-float64(m0.HeapObjects))/n)
		bytes = min(bytes, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/n)
	}
	return objects, bytes
}

// TestStandingSetHeap bounds what a compiled standing query costs the
// garbage collector: the live heap objects a portal set holds per query,
// which every collection marks. A program is a few flat arrays and no parse
// tree is kept, so at 10,000 queries it is at most 8 objects per query (24
// with a parse tree and a pointer graph per program). Measured like
// TestIdleSubscriptionsAreFree: one P, the least of the repetitions, and no
// count under the race detector.
func TestStandingSetHeap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		n     int
		bound float64
	}{{1000, 10}, {10000, 8}} {
		objects, bytes := standingCost(datagen.OverlapQueries(c.n, 0.9, 0, 0, 1), 3)
		t.Logf("%d portal queries: %.2f objects, %.0f bytes per query", c.n, objects, bytes)
		if raceEnabled {
			continue
		}
		if objects > c.bound {
			t.Errorf("%d portal queries hold %.2f live objects per query, want at most %v", c.n, objects, c.bound)
		}
	}
}

// leastAlloc returns the fewest allocations and bytes that one call of f made
// over runs calls. The runtime's counters are the whole process's: whatever
// else allocates during a call — the runtime itself, a goroutine an earlier
// test left running — only ever adds to them, so the least is the call's own.
func leastAlloc(runs int, f func()) (allocs, bytes uint64) {
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var m0, m1 runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return allocs, bytes
}

// TestChurnCostIsFlat: a subscription's churn costs what it changes, not the
// standing set. One Add of the benchmark's churn query (a value-group member),
// the Remove(last) of it and the next Stream's resync allocate within 2x at
// 10,000 portal queries of what they allocate at 1,000. The resync a pooled
// session pays after one Add of a query with a run of its own allocates the
// same at both sizes: the run and what its first document warms up. Pinned
// like TestIdleSubscriptionsAreFree: one P, the least of the repetitions
// (leastAlloc), and no byte counts under the race detector.
func TestChurnCostIsFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const reps = 20
	measure := func(n int) (pair, resync float64) {
		qs, err := NewQuerySet(datagen.OverlapQueries(n, 0.9, 0, 0, 1)...)
		if err != nil {
			t.Fatal(err)
		}
		doc := datagen.Portal{Articles: 20, Seed: 1}.String()
		rd := strings.NewReader(doc)
		stream := func() {
			rd.Reset(doc)
			if _, err := qs.Stream(rd, Options{}, func(SetResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		// The least of the repetitions, as leastAlloc takes it: another
		// goroutine's allocation only ever adds bytes.
		least := func(b *float64, f func()) {
			_, n := leastAlloc(1, f)
			*b = min(*b, float64(n))
		}
		churn := func(i int) *Query {
			return MustCompile(fmt.Sprintf("//channel//article/head/f%d[. = 'no-such-value-%d']", i%200, i))
		}
		routed := func(i int) *Query {
			return MustCompile(fmt.Sprintf("//channel//article/head/f%d[. != 'v%d']", i%7, i))
		}
		add := func(q *Query) {
			if _, err := qs.Add(q); err != nil {
				t.Fatal(err)
			}
		}
		remove := func() {
			if err := qs.Remove(n); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up: the pooled session, and the slot the churn query takes.
		stream()
		add(churn(reps))
		stream()
		remove()
		stream()
		pairs, pairBase, resyncs, resyncBase := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range reps {
			q := churn(i)
			least(&pairs, func() { add(q); remove(); stream() })
			least(&pairBase, stream)
			add(routed(i))
			least(&resyncs, stream)
			least(&resyncBase, stream)
			remove()
			stream()
		}
		return pairs - pairBase, resyncs - resyncBase
	}
	pair1k, resync1k := measure(1000)
	pair10k, resync10k := measure(10000)
	t.Logf("bytes per Add + Remove(last) + resync: %.0f at 1,000 queries, %.0f at 10,000; per resync after one Add: %.0f, %.0f",
		pair1k, pair10k, resync1k, resync10k)
	if raceEnabled {
		return // under -race the pool drops sessions: nothing here is a count
	}
	if pair10k > 2*pair1k {
		t.Fatalf("churn grows with the standing set: %.0f bytes per pair at 1,000 queries, %.0f at 10,000", pair1k, pair10k)
	}
	// The same, up to the few bytes the runtime allocates on its own in a
	// run of this length.
	if math.Abs(resync10k-resync1k) > 128 {
		t.Fatalf("a resync after one Add allocates %.0f bytes at 1,000 queries, %.0f at 10,000", resync1k, resync10k)
	}
}

// machQueries returns the query of every machine of sh, in dense order.
func machQueries(sh *shape) []int {
	out := make([]int, sh.machQuery.Len())
	for d := range out {
		out[d] = sh.machQuery.At(d)
	}
	return out
}

// TestBulkBuildMatchesIncremental: NewQuerySet builds the whole set as one
// engine epoch; it must be the set that Add-ing the same sources one by one
// builds — same machines in the same order, same shared trie, same results.
func TestBulkBuildMatchesIncremental(t *testing.T) {
	sources := append(datagen.OverlapQueries(60, 0.8, 0, 0, 7),
		"//channel//article/head/f3 | //article/@id",
		"//article/head/f1/text()",
		"//channel//*",
	)
	doc := datagen.Portal{Articles: 30, Seed: 5}.String()
	for _, cfg := range []SetConfig{{}, {DisablePrefixSharing: true}} {
		bulk, err := NewQuerySetConfigured(cfg, sources...)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewQuerySetConfigured(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range sources {
			if _, err := inc.Add(MustCompile(src)); err != nil {
				t.Fatal(err)
			}
		}
		if bn, in := len(bulk.eng.Programs()), len(inc.eng.Programs()); bn != in {
			t.Fatalf("%+v: %d machines bulk, %d incremental", cfg, bn, in)
		}
		// Machine d is the same branch of the same query in both.
		for qi := range bulk.entries {
			be, ie := bulk.entries[qi], inc.entries[qi]
			if b, i := be.q.String(), ie.q.String(); b != i || len(be.progs) != len(ie.progs) {
				t.Fatalf("%+v: query %d is %s bulk, %s incremental", cfg, qi, b, i)
			}
			for br, p := range be.progs {
				if d, id := bulk.eng.Index(p), inc.eng.Index(ie.progs[br]); d != id || p.Describe() != ie.progs[br].Describe() {
					t.Fatalf("%+v: branch %d of query %d is machine %d bulk, %d incremental", cfg, br, qi, d, id)
				}
			}
		}
		if !reflect.DeepEqual(machQueries(bulk.shape), machQueries(inc.shape)) {
			t.Fatalf("%+v: machine-to-query maps differ", cfg)
		}
		bm, im := bulk.Metrics(), inc.Metrics()
		if bm.Epoch != 1 {
			t.Fatalf("%+v: bulk build took %d epochs, want 1", cfg, bm.Epoch)
		}
		for _, c := range []struct {
			name      string
			bulk, inc int64
		}{
			{"Live", int64(bm.Live), int64(im.Live)},
			{"Slots", int64(bm.Slots), int64(im.Slots)},
			{"Compiles", bm.Compiles, im.Compiles},
			{"TrieNodes", int64(bm.TrieNodes), int64(im.TrieNodes)},
			{"TrieGarbage", int64(bm.TrieGarbage), int64(im.TrieGarbage)},
			{"AnchoredMachines", int64(bm.AnchoredMachines), int64(im.AnchoredMachines)},
			{"TrieGrafts", bm.TrieGrafts, im.TrieGrafts},
		} {
			if c.bulk != c.inc {
				t.Fatalf("%+v: %s is %d bulk, %d incremental", cfg, c.name, c.bulk, c.inc)
			}
		}
		for _, opts := range []Options{{}, {Ordered: true}} {
			collect := func(qs *QuerySet) ([]SetResult, []Stats) {
				var out []SetResult
				stats, err := qs.Stream(strings.NewReader(doc), opts, func(sr SetResult) error {
					out = append(out, sr)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return out, stats
			}
			br, bs := collect(bulk)
			ir, is := collect(inc)
			if len(br) == 0 || !reflect.DeepEqual(br, ir) {
				t.Fatalf("%+v %+v: %d results bulk, %d incremental, or they differ", cfg, opts, len(br), len(ir))
			}
			if !reflect.DeepEqual(bs, is) {
				t.Fatalf("%+v %+v: per-query stats differ", cfg, opts)
			}
		}
		dm := bulk.Metrics()
		if routed := dm.Events - bm.Events; routed == 0 || dm.TriePushes-bm.TriePushes != inc.Metrics().TriePushes-im.TriePushes {
			t.Fatalf("%+v: trie work differs between bulk and incremental", cfg)
		}
	}
}
