package twigm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	odd := g1.Only(func(id int32) bool { return id%2 == 1 })
	if odd.Size() != 1 || !reflect.DeepEqual(odd.Members(0), []int32{1}) {
		t.Fatalf("Only: %+v", odd)
	}
}

// memberRuns evaluates the members' own machines over doc the way the engine
// did before value groups: every member delivered each event it subscribes
// to, in member order, with one recorder and one trace writer between them.
func memberRuns(t *testing.T, progs []*Program, syms *sax.Symbols, doc string, opts Options) ([][]Result, []Stats, string) {
	t.Helper()
	var trace bytes.Buffer
	if opts.Trace != nil {
		opts.Trace = &trace
	}
	profiles := make([][]TrieStep, len(progs))
	for i, p := range progs {
		profiles[i] = p.Profile()
	}
	trie, anchors := BuildTrie(profiles, syms.Len())
	var pr PrefixRun
	pr.Rebind(trie, nil)
	results := make([][]Result, len(progs))
	var rec Recorder
	runs := make([]*Run, len(progs))
	for i, p := range progs {
		o := opts
		o.EmitFrom = func(_ int, res Result) error {
			results[i] = append(results[i], res)
			return nil
		}
		runs[i] = p.Start(o)
		runs[i].BindRecorder(&rec)
		if anchors[i] >= 0 {
			runs[i].BindAnchor(pr.Stack(anchors[i]))
		}
	}
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
	stats := make([]Stats, len(progs))
	for i, run := range runs {
		stats[i] = machineCounters(run.Stats())
	}
	return results, stats, trace.String()
}

// groupRun evaluates the same members as one GroupRun, visiting the members
// each event concerns in member order.
func groupRun(t *testing.T, progs []*Program, syms *sax.Symbols, doc string, opts Options) ([][]Result, []Stats, string) {
	t.Helper()
	var trace bytes.Buffer
	if opts.Trace != nil {
		opts.Trace = &trace
	}
	profiles := make([][]TrieStep, len(progs))
	for i, p := range progs {
		profiles[i] = p.Profile()
	}
	trie, anchors := BuildTrie(profiles, syms.Len())
	var pr PrefixRun
	pr.Rebind(trie, nil)
	members := make([]ValueMember, len(progs))
	for i, p := range progs {
		lit, keyed := p.ValueKey()
		if !keyed || p.GroupKey(anchors[i]) != progs[0].GroupKey(anchors[0]) {
			t.Fatalf("%s is not a member of %s's group", p.Query(), progs[0].Query())
		}
		members[i] = ValueMember{ID: int32(i), Literal: lit}
	}
	vg := NewValueGroup(progs[0], anchors[0], members)
	results := make([][]Result, len(progs))
	opts.EmitFrom = func(id int, res Result) error {
		results[id] = append(results[id], res)
		return nil
	}
	var rec Recorder
	var g GroupRun
	var anchor *AnchorStack
	if anchors[0] >= 0 {
		anchor = pr.Stack(anchors[0])
	}
	g.Reset(vg, opts, &rec, anchor)
	visit := func() error {
		due := g.Due(nil)
		for id := range int32(len(progs)) { // member order
			for _, b := range due {
				if slices.Contains(vg.Members(b), id) {
					if err := g.Visit(int(id), b, opts.Ordered); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	idx := int64(0)
	err := xmlscan.NewScannerWith(strings.NewReader(doc), syms).Run(sax.PerEvent(func(ev *sax.Event) error {
		idx++
		if ev.Kind == sax.StartElement {
			pr.StartElement(ev)
		}
		rec.Before(ev)
		switch {
		case ev.Kind == sax.StartElement && ev.NameID == vg.NameID():
			if g.StartElement(ev, idx) {
				if err := visit(); err != nil {
					return err
				}
			}
		case ev.Kind == sax.Text && g.LiveEntries() > 0:
			g.Text(ev)
		case ev.Kind == sax.EndElement && g.LiveEntries() > 0:
			if g.EndElement(ev, idx) {
				if err := visit(); err != nil {
					return err
				}
			}
		case ev.Kind == sax.EndDocument:
			if err := g.EndDocument(); err != nil {
				return err
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
	stats := make([]Stats, len(progs))
	for b := range int32(vg.Buckets()) {
		for _, m := range vg.Members(b) {
			stats[m] = machineCounters(g.Stats(b, false))
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

// TestGroupRunMatchesMemberRuns holds a GroupRun against the members' own
// machines: results, statistics and the trace, member for member, on random
// groups over documents built to stress the string-value.
func TestGroupRunMatchesMemberRuns(t *testing.T) {
	shapes := []string{"//%s[. = '%s']", "//r/%s[. = '%s']", "/r/%s[. = '%s']", "//r//%s[. = '%s']", "//a/%s[. = '%s']"}
	literals := []string{"x", "y", "xy", "", "x y", "1", "é", "x & y"}
	docs := []string{
		`<r><a>x<a>y</a></a><a>xy</a><a>y</a><b>x<a>1</a>2</b><a/></r>`,
		`<r><a>x &amp; y</a><a><a>x<a>x</a>y</a></a><a>é</a><a> x y </a></r>`,
		`<r><a><b>x</b>y<b/></a><a><![CDATA[x]]> y</a><c><a>1</a></c></r>`,
		`<a><a>x</a><r><a>x</a></r></a>`,
	}
	rng := rand.New(rand.NewSource(7))
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
			if gotTrace != wantTrace {
				t.Fatalf("%s: trace\ngroup:\n%s\nmembers:\n%s", name, gotTrace, wantTrace)
			}
		}
	}
}
