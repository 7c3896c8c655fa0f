package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/twigm"
	"repro/internal/xpath"
)

func mustEngine(t *testing.T, sources ...string) *Engine {
	t.Helper()
	queries := make([]*xpath.Query, len(sources))
	for i, src := range sources {
		queries[i] = xpath.MustParse(src)
	}
	e, err := New(queries...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func collect(t *testing.T, e *Engine, doc string, ordered bool) [][]string {
	t.Helper()
	out := make([][]string, e.Len())
	opts := make([]twigm.Options, e.Len())
	for i := range opts {
		idx := i
		opts[i] = twigm.Options{Ordered: ordered, EmitFrom: func(_ int, r twigm.Result) error {
			out[idx] = append(out[idx], r.Value)
			return nil
		}}
	}
	if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoutedSparseMachinesUntouched: machines whose vocabulary never occurs
// in the document must do zero machine work — the point of routed dispatch.
func TestRoutedSparseMachinesUntouched(t *testing.T) {
	e := mustEngine(t,
		"//trade/price",
		"//absent[child]//deeper",
		"//missing/@attr",
	)
	doc := `<feed><trade><price>10</price></trade><trade><price>20</price></trade></feed>`
	opts := make([]twigm.Options, e.Len())
	stats, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Pushes == 0 {
		t.Fatal("matching machine pushed nothing")
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Pushes != 0 || stats[i].FlagProps != 0 {
			t.Fatalf("sparse machine %d did work: %+v", i, stats[i])
		}
		// Shared-scan counters are still reported for every machine.
		if stats[i].Events != stats[0].Events || stats[i].Elements != stats[0].Elements {
			t.Fatalf("machine %d missing shared scan counters: %+v vs %+v", i, stats[i], stats[0])
		}
	}
}

// TestFragmentRecordingAcrossForeignTags: once a machine's output element
// opens, its fragment holds descendant markup whose names no query mentions
// — the router's recorder serializes what no machine is delivered.
func TestFragmentRecordingAcrossForeignTags(t *testing.T) {
	e := mustEngine(t, "//keep", "//other")
	doc := `<r><keep a="1"><alien>x<beta/>y</alien></keep><other/></r>`
	out := collect(t, e, doc, false)
	want := []string{`<keep a="1"><alien>x<beta/>y</alien></keep>`}
	if !reflect.DeepEqual(out[0], want) {
		t.Fatalf("fragment = %q, want %q", out[0], want)
	}
	if !reflect.DeepEqual(out[1], []string{"<other/>"}) {
		t.Fatalf("second machine = %q", out[1])
	}
}

// TestTextRoutingSelfPredicate: text events must reach machines holding an
// open string-value accumulator even between matching tags.
func TestTextRoutingSelfPredicate(t *testing.T) {
	e := mustEngine(t, "//v[.='hit']", "//w")
	doc := `<r><v>h<i/>it</v><v>miss</v><w>z</w></r>`
	out := collect(t, e, doc, true)
	if len(out[0]) != 1 || !strings.Contains(out[0][0], "h<i/>it") {
		t.Fatalf("self-comparison results = %q", out[0])
	}
}

// TestWildcardGetsEverything: '*' machines subscribe to every element name.
func TestWildcardGetsEverything(t *testing.T) {
	e := mustEngine(t, "//*[@id]", "//none")
	doc := `<r><a id="1"/><b><c id="2"/></b></r>`
	out := collect(t, e, doc, true)
	if len(out[0]) != 2 {
		t.Fatalf("wildcard results = %q", out[0])
	}
}

// TestAttrOnlyRouting: an element name foreign to a machine still routes to
// it when an attribute name matches (descendant attribute axes).
func TestAttrOnlyRouting(t *testing.T) {
	e := mustEngine(t, "//@seq", "//blocker")
	doc := `<r><foreign seq="9"/><plain/></r>`
	out := collect(t, e, doc, true)
	if !reflect.DeepEqual(out[0], []string{"9"}) {
		t.Fatalf("attr results = %q", out[0])
	}
}

// TestEmitErrorAborts: a machine's emit error aborts the shared scan.
func TestEmitErrorAborts(t *testing.T) {
	e := mustEngine(t, "//a", "//b")
	boom := errors.New("boom")
	opts := []twigm.Options{
		{EmitFrom: func(int, twigm.Result) error { return boom }},
		{},
	}
	_, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(`<r><a/><b/></r>`), opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestSessionReuseIsClean: repeated Stream calls over one engine (exercising
// the session pool and every Reset path) must keep producing identical
// results, including after an aborted stream.
func TestSessionReuseIsClean(t *testing.T) {
	e := mustEngine(t, "//trade[symbol='A']/price", "//trade/price", "//x")
	doc := `<feed><trade><symbol>A</symbol><price>1</price></trade><trade><symbol>B</symbol><price>2</price></trade></feed>`
	first := collect(t, e, doc, false)
	// Abort one stream mid-way to dirty a session.
	opts := []twigm.Options{{EmitFrom: func(int, twigm.Result) error { return errors.New("stop") }}, {}, {}}
	if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts); err == nil {
		t.Fatal("expected abort error")
	}
	for i := 0; i < 5; i++ {
		again := collect(t, e, doc, false)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("iteration %d: %q != %q", i, again, first)
		}
	}
}

// TestConcurrentStreams hammers one engine from several goroutines: each
// Stream call must get independent pooled machine state.
func TestConcurrentStreams(t *testing.T) {
	e := mustEngine(t, "//trade/price", "//trade[symbol='A']/price", "//nothing")
	doc := `<feed>` + strings.Repeat(`<trade><symbol>A</symbol><price>7</price></trade><trade><symbol>B</symbol><price>9</price></trade>`, 20) + `</feed>`
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				counts := make([]int, e.Len())
				opts := make([]twigm.Options, e.Len())
				for j := range opts {
					opts[j].CountOnly = true
					opts[j].EmitFrom = func(int, twigm.Result) error { counts[j]++; return nil }
				}
				if _, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts); err != nil {
					errs <- err
					return
				}
				if counts[0] != 40 || counts[1] != 20 || counts[2] != 0 {
					errs <- fmt.Errorf("counts = %v", counts)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDenseSet(t *testing.T) {
	var d denseSet
	d.init(5)
	d.set(3, true)
	d.set(1, true)
	d.set(3, true) // idempotent
	if len(d.items) != 2 {
		t.Fatalf("items = %v", d.items)
	}
	d.set(3, false)
	d.set(3, false) // idempotent
	if len(d.items) != 1 || d.items[0] != 1 {
		t.Fatalf("items = %v", d.items)
	}
	d.set(0, true)
	d.set(4, true)
	d.clear()
	if len(d.items) != 0 {
		t.Fatalf("items after clear = %v", d.items)
	}
	for i, p := range d.pos {
		if p != -1 {
			t.Fatalf("pos[%d] = %d after clear", i, p)
		}
	}
}

func TestMergeStats(t *testing.T) {
	a := twigm.Stats{Events: 10, Elements: 4, MaxDepth: 3, Pushes: 2, PeakStackEntries: 1, PeakLiveCandidates: 2}
	b := twigm.Stats{Events: 10, Elements: 4, MaxDepth: 3, Pushes: 5, PeakStackEntries: 2, PeakLiveCandidates: 1}
	var m twigm.Stats
	MergeStats(&m, a)
	MergeStats(&m, b)
	if m.Events != 10 || m.Pushes != 7 || m.PeakStackEntries != 3 || m.PeakLiveCandidates != 2 {
		t.Fatalf("merged = %+v", m)
	}
}
