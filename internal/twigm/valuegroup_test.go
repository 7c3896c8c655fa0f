package twigm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/xmlscan"
)

func TestValueKey(t *testing.T) {
	cases := []struct {
		src     string
		literal string
		keyed   bool
	}{
		{"//a[. = 'x']", "x", true},
		{"/r/a[. = '']", "", true},
		{"//r//a/b[.='v w']", "v w", true},
		{`//p:a[. = "x"]`, "x", true},
		{"//a[. != 'x']", "", false},
		{"//a[. = 3]", "", false},
		{"//a[. = 'x'][b]", "", false},
		{"//a[text() = 'x']", "", false},
		{"//a[. = 'x']/b", "", false},
		{"//a[b]/c[. = 'x']", "", false}, // the residual is two steps
		{"//a/@k", "", false},
		{"//*[. = 'x']", "", false},
		{"//a", "", false},
	}
	for _, tc := range cases {
		p, err := CompileShared(mustParse(t, tc.src), nil)
		if err != nil {
			t.Fatal(err)
		}
		if lit, keyed := p.ValueKey(); keyed != tc.keyed || lit != tc.literal {
			t.Errorf("ValueKey(%q) = %q, %v; want %q, %v", tc.src, lit, keyed, tc.literal, tc.keyed)
		}
		if p, _ := CompileWith(mustParse(t, tc.src), nil); func() bool { _, k := p.ValueKey(); return k }() {
			t.Errorf("%q compiled unshared is value-keyed", tc.src)
		}
	}
}

func TestValueGroupCopyOnWrite(t *testing.T) {
	p, err := CompileShared(mustParse(t, "//a[. = 'x']"), nil)
	if err != nil {
		t.Fatal(err)
	}
	g0 := NewValueGroup(p, -1, []ValueMember{{1, "x"}, {4, "y"}})
	g1 := g0.With(2, "x")
	g2 := g1.Without(4, "y")
	if g0.Size() != 2 || g0.Buckets() != 2 || !reflect.DeepEqual(g0.Members(0), []int32{1}) {
		t.Fatalf("With changed the group it copied: %+v", g0)
	}
	if !reflect.DeepEqual(g1.Members(0), []int32{1, 2}) || g1.Size() != 3 {
		t.Fatalf("With: %+v", g1)
	}
	if g2.Buckets() != 1 || g2.Size() != 2 || g1.Buckets() != 2 {
		t.Fatalf("Without: %+v (from %+v)", g2, g1)
	}
	if g := g2.Without(1, "x").Without(2, "x"); g != nil {
		t.Fatalf("a group without members: %+v", g)
	}
	// The host is the lowest member, whoever joins or leaves.
	for _, tc := range []struct {
		g    *ValueGroup
		host int32
	}{{g0, 1}, {g1, 1}, {g1.With(0, "z"), 0}, {g1.Without(1, "x"), 2}, {g0.Without(1, "x"), 4}} {
		if tc.g.Host() != tc.host {
			t.Errorf("host of %+v is %d, want %d", tc.g, tc.g.Host(), tc.host)
		}
	}
}

// routeDoc delivers doc to runs the way the engine does: each event only
// to the runs subscribed to it, in order, around one recorder and one prefix
// trie.
func routeDoc(t *testing.T, runs []*Run, pr *PrefixRun, rec *Recorder, syms *sax.Symbols, doc string) {
	t.Helper()
	idx := int64(0)
	err := xmlscan.NewScannerWith(strings.NewReader(doc), syms).Run(sax.PerEvent(func(ev *sax.Event) error {
		idx++
		if ev.Kind == sax.StartElement {
			pr.StartElement(ev)
		}
		rec.Before(ev)
		for _, run := range runs {
			deliver := ev.Kind == sax.EndDocument ||
				ev.Kind == sax.StartElement && run.elemNodes(ev) != nil ||
				ev.Kind == sax.Text && run.WantsText() ||
				ev.Kind == sax.EndElement && run.LiveEntries() > 0
			if deliver {
				if err := run.HandleRouted(ev, idx); err != nil {
					return err
				}
			}
		}
		rec.After(ev)
		if ev.Kind == sax.EndElement {
			pr.EndElement(ev.Depth)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
}

// startRuns starts a run of each program bound to one recorder and to the
// anchors of one trie over their profiles, with the options opts makes for
// run i.
func startRuns(progs []*Program, syms *sax.Symbols, opts func(i int) Options) ([]*Run, *PrefixRun, *Recorder, []int32) {
	profiles := make([][]TrieStep, len(progs))
	for i, p := range progs {
		profiles[i] = p.Profile()
	}
	trie, anchors := BuildTrie(profiles)
	pr, rec := new(PrefixRun), new(Recorder)
	pr.Rebind(trie)
	runs := make([]*Run, len(progs))
	for i, p := range progs {
		runs[i] = p.Start(opts(i))
		runs[i].BindRecorder(rec)
		if anchors[i] >= 0 {
			runs[i].BindAnchor(pr.Stack(anchors[i]))
		}
	}
	return runs, pr, rec, anchors
}

// memberRuns evaluates the members' own machines over doc, each delivered the
// events it subscribes to, with one recorder and one trace writer between
// them.
func memberRuns(t *testing.T, progs []*Program, syms *sax.Symbols, doc string, opts Options) ([][]Result, []Stats, string) {
	t.Helper()
	var trace bytes.Buffer
	if opts.Trace != nil {
		opts.Trace = &trace
	}
	results := make([][]Result, len(progs))
	runs, pr, rec, _ := startRuns(progs, syms, func(i int) Options {
		o := opts
		o.EmitFrom = func(_ int, res Result) error {
			results[i] = append(results[i], res)
			return nil
		}
		return o
	})
	routeDoc(t, runs, pr, rec, syms, doc)
	stats := make([]Stats, len(progs))
	for i, run := range runs {
		stats[i] = machineCounters(run.Stats())
	}
	return results, stats, trace.String()
}

// groupRun evaluates the same members as one run of the first member's
// machine with their value group bound.
func groupRun(t *testing.T, progs []*Program, syms *sax.Symbols, doc string, opts Options) ([][]Result, []Stats, string) {
	t.Helper()
	var trace bytes.Buffer
	if opts.Trace != nil {
		opts.Trace = &trace
	}
	results := make([][]Result, len(progs))
	opts.EmitFrom = func(id int, res Result) error {
		results[id] = append(results[id], res)
		return nil
	}
	runs, pr, rec, anchors := startRuns(progs[:1], syms, func(int) Options { return opts })
	members := make([]ValueMember, len(progs))
	for i, p := range progs {
		lit, keyed := p.ValueKey()
		if !keyed || p.GroupKey(anchors[0]) != progs[0].GroupKey(anchors[0]) {
			t.Fatalf("%s is not a member of %s's group", p.Describe(), progs[0].Describe())
		}
		members[i] = ValueMember{ID: int32(i), Literal: lit}
	}
	vg := NewValueGroup(progs[0], anchors[0], members)
	runs[0].BindGroup(vg, nil)
	routeDoc(t, runs, pr, rec, syms, doc)
	stats := make([]Stats, len(progs))
	for b := range int32(vg.Buckets()) {
		for _, m := range vg.Members(b) {
			stats[m] = machineCounters(runs[0].MemberStats(b))
		}
	}
	return results, stats, trace.String()
}

// machineCounters drops the scan-level counters, which the engine fills in
// from the shared scan whoever evaluated the machine.
func machineCounters(st Stats) Stats {
	st.Events, st.Elements, st.MaxDepth = 0, 0, 0
	return st
}

// TestGroupedRunMatchesMemberRuns holds one run evaluating a value group
// against the members' own machines, member for member: results and
// statistics always, and the trace when the group has one member (a group of
// several traces its transitions once, not once per member), on random groups
// over documents built to stress the string-value.
func TestGroupedRunMatchesMemberRuns(t *testing.T) {
	shapes := []string{"//%s[. = '%s']", "//r/%s[. = '%s']", "/r/%s[. = '%s']", "//r//%s[. = '%s']", "//a/%s[. = '%s']"}
	literals := []string{"x", "y", "xy", "", "x y", "1", "é", "x & y"}
	docs := []string{
		`<r><a>x<a>y</a></a><a>xy</a><a>y</a><b>x<a>1</a>2</b><a/></r>`,
		`<r><a>x &amp; y</a><a><a>x<a>x</a>y</a></a><a>é</a><a> x y </a></r>`,
		`<r><a><b>x</b>y<b/></a><a><![CDATA[x]]> y</a><c><a>1</a></c></r>`,
		`<a><a>x</a><r><a>x</a></r></a>`,
	}
	rng := rand.New(rand.NewSource(7))
	solos := 0
	for round := 0; round < 60; round++ {
		shape := shapes[rng.Intn(len(shapes))]
		syms := sax.NewSymbols()
		var progs []*Program
		var srcs []string
		for i := 0; i < 1+rng.Intn(6); i++ {
			src := fmt.Sprintf(shape, "a", literals[rng.Intn(len(literals))])
			p, err := CompileShared(mustParse(t, src), syms)
			if err != nil {
				t.Fatal(err)
			}
			progs, srcs = append(progs, p), append(srcs, src)
		}
		if len(progs) == 1 {
			solos++
		}
		doc := docs[rng.Intn(len(docs))]
		for _, opts := range []Options{{}, {Ordered: true}, {CountOnly: true}, {Trace: &bytes.Buffer{}}, {Ordered: true, Trace: &bytes.Buffer{}}} {
			wantRes, wantStats, wantTrace := memberRuns(t, progs, syms, doc, opts)
			gotRes, gotStats, gotTrace := groupRun(t, progs, syms, doc, opts)
			name := fmt.Sprintf("round %d %q over %q (ordered=%v count=%v traced=%v)", round, srcs, doc, opts.Ordered, opts.CountOnly, opts.Trace != nil)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s: results\ngroup   %+v\nmembers %+v", name, gotRes, wantRes)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("%s: statistics\ngroup   %+v\nmembers %+v", name, gotStats, wantStats)
			}
			if len(progs) == 1 && gotTrace != wantTrace {
				t.Fatalf("%s: trace\ngroup:\n%s\nmember:\n%s", name, gotTrace, wantTrace)
			}
		}
	}
	if solos == 0 {
		t.Fatal("no group of one member: the trace went unchecked")
	}
}

// TestGroupedRunTracesOnce: a run evaluating a group of several members logs
// each transition once, whatever literal matched, and one emit line per
// result it delivers.
func TestGroupedRunTracesOnce(t *testing.T) {
	syms := sax.NewSymbols()
	var progs []*Program
	for _, src := range []string{"//a[. = 'x']", "//a[. = 'x']", "//a[. = 'y']"} {
		p, err := CompileShared(mustParse(t, src), syms)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	_, _, trace := groupRun(t, progs, syms, `<r><a>x</a><a>z</a></r>`, Options{Trace: &bytes.Buffer{}})
	want := `push   a            level=2
cand   #0 created (buffered until predicates resolve)
match  a            level=2 subquery satisfied
proven #0 is a query solution
emit   #0 at event 5: <a>x</a>
emit   #0 at event 5: <a>x</a>
pop    a            level=2 satisfied flags=0
push   a            level=2
cand   #1 created (buffered until predicates resolve)
drop   #1 discarded (no pattern match can qualify it)
pop    a            level=2 unsatisfied flags=0
`
	if trace != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", trace, want)
	}
}
