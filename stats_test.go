package vitex

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// TestFirstResultDoesNotWaitOnStandingSet: what a document allocates before
// its first result does not grow with the standing set, through Stream as
// through Evaluate. Stream's rows, one per standing query, are made once the
// scan is over; made up front they put a megabyte between the call and the
// first result at 10,000 queries.
func TestFirstResultDoesNotWaitOnStandingSet(t *testing.T) {
	const doc = `<feed><trade seq="1"><symbol>ACME</symbol><price>10</price></trade><trade seq="2"><symbol>ACME</symbol><price>11</price></trade></feed>`
	const runs = 20
	// One P: a sync.Pool keeps one private slot per P (TestIdleSubscriptionsAreFree).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	entries := []struct {
		name string
		call func(qs *QuerySet, r io.Reader, emit func(SetResult) error) error
	}{
		{"Stream", func(qs *QuerySet, r io.Reader, emit func(SetResult) error) error {
			_, err := qs.Stream(r, Options{}, emit)
			return err
		}},
		{"Evaluate", func(qs *QuerySet, r io.Reader, emit func(SetResult) error) error {
			_, err := qs.Evaluate(r, Options{}, emit)
			return err
		}},
	}
	sets := make(map[int]*QuerySet)
	for _, n := range []int{1000, 10000} {
		qs, err := NewQuerySet(append([]string{"//trade/price"}, datagen.SparseTickerQueries(0, n)...)...)
		if err != nil {
			t.Fatal(err)
		}
		sets[n] = qs
	}
	for _, entry := range entries {
		t.Run(entry.name, func(t *testing.T) {
			// beforeFirst returns the bytes allocated between the call and
			// its first result, averaged over runs documents.
			beforeFirst := func(n int) uint64 {
				qs := sets[n]
				rd := strings.NewReader(doc)
				var m0, m1 runtime.MemStats
				var total uint64
				results := 0
				emit := func(SetResult) error {
					if results++; results == 1 {
						runtime.ReadMemStats(&m1)
					}
					return nil
				}
				once := func() {
					rd.Reset(doc)
					results = 0
					runtime.ReadMemStats(&m0)
					if err := entry.call(qs, rd, emit); err != nil || results != 2 {
						t.Fatalf("%d queries: %d results, err %v", n, results, err)
					}
					total += m1.TotalAlloc - m0.TotalAlloc
				}
				once() // warm the pooled session and the scanner
				total = 0
				for range runs {
					once()
				}
				return total / runs
			}
			b1k, b10k := beforeFirst(1000), beforeFirst(10000)
			if raceEnabled {
				return // results were checked; allocation counts are not meaningful
			}
			if b10k > b1k+8192 || b1k > b10k+8192 {
				t.Fatalf("bytes before the first result grow with the standing set: %d at 1,000 queries, %d at 10,000", b1k, b10k)
			}
		})
	}
}

// TestStreamAllocatesOnlyItsRows: Stream's rows are one allocation. At 1,000
// and at 10,000 portal queries, over a document that wakes value groups and
// ordinary machines, a Stream call allocates as many objects as an Evaluate
// call plus one. Pinned like TestIdleSubscriptionsAreFree: one P, the least
// of the repetitions (leastAlloc), and no counts under the race detector.
func TestStreamAllocatesOnlyItsRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	doc := datagen.Portal{Articles: 5, Seed: 1}.String()
	discard := func(SetResult) error { return nil }
	for _, n := range []int{1000, 10000} {
		qs, err := NewQuerySet(datagen.OverlapQueries(n, 0.9, 0, 0, 1)...)
		if err != nil {
			t.Fatal(err)
		}
		rd := strings.NewReader(doc)
		measure := func(call func() error) uint64 {
			once := func() {
				rd.Reset(doc)
				if err := call(); err != nil {
					t.Fatalf("%d queries: %v", n, err)
				}
			}
			once() // warm the pooled session and the scanner
			allocs, _ := leastAlloc(runs, once)
			return allocs
		}
		var rows []Stats
		stream := measure(func() (err error) {
			rows, err = qs.Stream(rd, Options{}, discard)
			return err
		})
		evaluate := measure(func() error {
			_, err := qs.Evaluate(rd, Options{}, discard)
			return err
		})
		scan := Stats{Events: rows[0].Events, Elements: rows[0].Elements, MaxDepth: rows[0].MaxDepth}
		if !slices.ContainsFunc(rows, func(row Stats) bool { return row != scan }) {
			t.Fatalf("%d queries: the document wakes nothing: the test lost its subject", n)
		}
		if raceEnabled {
			continue // the rows were checked; allocation counts are not meaningful
		}
		if stream != evaluate+1 {
			t.Fatalf("%d queries: Stream allocates %d objects per document, Evaluate %d: want one more for the rows", n, stream, evaluate)
		}
	}
}

// statsSets are the sets of the statistics contract tests: portal-shaped
// value groups with dead-vocabulary queries between them, unions whose
// branches wake alike and apart, and queries no document here wakes.
func statsSets() []struct {
	name    string
	sources []string
	docs    []string
	idle    []int // queries no document wakes
} {
	portal := datagen.OverlapQueries(300, 0.9, 20, 4, 1)
	portal = append(portal,
		"//channel//article/head/f3[. = 'v1'] | //channel//article/head/f5[. = 'v2']",
		"//article/head/f2 | //article/head/f2[. = 'v0']",
		"//nothing-here | //nor-here",
		"//channel//article/head/f1[. = 'never']",
	)
	ticker := append(datagen.SparseTickerQueries(4, 20),
		"//trade[symbol='ACME']/price | //trade/symbol",
		"//trade/price | //trade[price > 10]/price",
	)
	n := len(portal)
	return []struct {
		name    string
		sources []string
		docs    []string
		idle    []int
	}{
		{"portal", portal, []string{
			datagen.Portal{Articles: 6, Fields: 20, Values: 4, Seed: 1}.String(),
			datagen.Portal{Articles: 3, Fields: 20, Values: 4, Seed: 2}.String(),
		}, []int{n - 2}},
		{"ticker", ticker, []string{
			datagen.Ticker{Trades: 12, Seed: 1}.String(),
		}, []int{4, 5, 23}},
	}
}

// TestStreamRows: Stream's rows carry the shared scan's counters, which
// Evaluate returns, in every row; a query no document wakes has nothing else
// in its row; each woken query's row counts the results delivered for it
// (a union's branches may each confirm a node the query delivers once), in
// both delivery orders. On an emit error and on a malformed document the
// statistics still arrive, through the failing event. The deprecated
// Options.Parallel is ignored: setting it changes no result and no row.
func TestStreamRows(t *testing.T) {
	for _, set := range statsSets() {
		qs, err := NewQuerySet(set.sources...)
		if err != nil {
			t.Fatal(err)
		}
		for di, doc := range set.docs {
			for _, failure := range []string{"none", "emit", "malformed"} {
				for _, ordered := range []bool{false, true} {
					c := rowsCase{
						name:  fmt.Sprintf("%s/doc%d/failure=%s/ordered=%v", set.name, di, failure, ordered),
						qs:    qs,
						idle:  set.idle,
						doc:   doc,
						opts:  Options{Ordered: ordered},
						fails: failure != "none",
					}
					if failure == "malformed" {
						// Cut inside the document: every query that woke
						// has live entries when the scan fails.
						c.doc = doc[:len(doc)*2/3] + "</oops>"
					}
					if failure == "emit" {
						c.failAt = 3
					}
					out, rows := c.check(t)
					if failure != "none" {
						continue
					}
					c.name += "/Parallel=2"
					c.opts.Parallel = 2
					if again, againRows := c.check(t); !reflect.DeepEqual(again, out) || !reflect.DeepEqual(againRows, rows) {
						t.Fatalf("%s: Options.Parallel changed the output\nwith    %+v %+v\nwithout %+v %+v", c.name, again, againRows, out, rows)
					}
				}
			}
		}
	}
}

// rowsCase is one evaluation of TestStreamRows.
type rowsCase struct {
	name   string
	qs     *QuerySet
	idle   []int
	doc    string
	opts   Options
	fails  bool
	failAt int // the result whose emit fails, 0 for none
}

// check runs the case through Stream and Evaluate, checks the contract of
// TestStreamRows that holds of one evaluation, and returns what Stream
// delivered and its rows.
func (c rowsCase) check(t *testing.T) ([]SetResult, []Stats) {
	t.Helper()
	delivered := make([]int64, c.qs.Len())
	var out []SetResult
	rows, err := c.qs.Stream(strings.NewReader(c.doc), c.opts, func(sr SetResult) error {
		delivered[sr.QueryIndex]++
		if out = append(out, sr); len(out) == c.failAt {
			return errors.New("stop")
		}
		return nil
	})
	if (err != nil) != c.fails {
		t.Fatalf("%s: Stream returned %v", c.name, err)
	}
	if len(rows) != c.qs.Len() {
		t.Fatalf("%s: %d rows for %d queries", c.name, len(rows), c.qs.Len())
	}
	scan := Stats{Events: rows[0].Events, Elements: rows[0].Elements, MaxDepth: rows[0].MaxDepth}
	woken := 0
	for q, row := range rows {
		if row.Events != scan.Events || row.Elements != scan.Elements || row.MaxDepth != scan.MaxDepth {
			t.Fatalf("%s: query %d's row %+v lacks the scan's counters %+v", c.name, q, row, scan)
		}
		if row != scan {
			woken++
		}
		if !c.fails {
			src := c.qs.Query(q).Source()
			if union := strings.Contains(src, "|"); row.CandidatesEmitted < delivered[q] || !union && row.CandidatesEmitted != delivered[q] {
				t.Fatalf("%s: query %d (%s): row emitted %d, %d delivered", c.name, q, src, row.CandidatesEmitted, delivered[q])
			}
		}
	}
	for _, q := range c.idle {
		if rows[q] != scan {
			t.Fatalf("%s: idle query %d (%s) has a row of work: %+v", c.name, q, c.qs.Query(q).Source(), rows[q])
		}
	}
	if woken == 0 {
		t.Fatalf("%s: the document woke nothing: the test lost its subject", c.name)
	}
	results := 0
	got, err := c.qs.Evaluate(strings.NewReader(c.doc), c.opts, func(SetResult) error {
		if results++; results == c.failAt {
			return errors.New("stop")
		}
		return nil
	})
	if (err != nil) != c.fails {
		t.Fatalf("%s: Evaluate returned %v", c.name, err)
	}
	if got != scan {
		t.Fatalf("%s: Evaluate returned %+v, want the scan's counters %+v", c.name, got, scan)
	}
	return out, rows
}
