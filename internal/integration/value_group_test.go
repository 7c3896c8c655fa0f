package integration

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// The value-group campaign. Equality subscriptions with one shape share a
// value group that evaluates them all at once (internal/twigm/valuegroup.go);
// every member must still produce, result for result and counter for counter,
// what its own machine produces. The references are the same machines with
// prefix sharing — and so grouping — disabled, for the emission sequence, and
// each query evaluated alone, for its results and statistics (prefix sharing
// changes what a machine counts; TestGroupedRunMatchesMemberRuns in
// internal/twigm holds a member's counters against its own machine's).
// Evaluation runs over saxtest.PoisonDriver.

// groupDocs exercise what a string-value depends on: nested same-name
// elements, mixed content, entities, whitespace, non-ASCII text, prefixes,
// empty elements.
var groupDocs = []string{
	`<r><a>x<a>y</a></a><a>xy</a><a>y</a><b>x<c>1</c>2</b></r>`,
	`<r><a>x<b>y</b></a><a>x</a><a>x<b/></a><a></a><a/><c>3</c><d/></r>`,
	`<r><a>x &amp; y &#x41;</a><a>x<a>x</a></a><a>1</a><b>&lt;2&gt;</b></r>`,
	`<r><a>héllo</a><a>h&#233;llo</a><b>é</b></r>`,
	"<r>\n  <a>x</a>\n  <a> x </a>\n  <a>\ty\r\n</a>\n</r>",
	`<r xmlns:p='u'><p:a>x</p:a><a>x</a><q:a xmlns:q='v'>x</q:a></r>`,
	`<r><a>y<a>y<a>y</a></a></a><b>y</b><b>2</b><a><![CDATA[x]]></a></r>`,
}

// groupLiterals are the literals the campaign's equality tests compare with:
// the random trees' texts and groupDocs' values, concatenations, the empty
// string, entities, whitespace and non-ASCII text.
var groupLiterals = []string{"1", "2", "3", "x", "y", "", "xy", "yx", "x & y A", " x ", "\ty\n", "héllo", "é", "<2>", "12"}

// groupNearMisses are shapes close to a value-keyed one that must stay
// ordinary machines; %[1]s is a label, %[2]s a literal.
var groupNearMisses = []string{
	"//%[1]s[. != '%[2]s']",
	"//%[1]s[. = 3]",
	"//%[1]s[. = '%[2]s'][b]",
	"//%[1]s[text() = '%[2]s']",
	"//%[1]s[. = '%[2]s']/b",
	"//%[1]s/@k",
	"//*[. = '%[2]s']",
	"//%[1]s[. = '%[2]s' or . = 'x']",
}

// randomGroupSet draws a set with many literals per group, duplicates and
// near-misses, plus a couple of grammar-random queries and a union.
func randomGroupSet(rng *rand.Rand) []string {
	labels := []string{"a", "b", "c", "d"}
	shapes := []string{"//%s[. = '%s']", "//r/%s[. = '%s']", "/r/%s[. = '%s']", "//r//%s[. = '%s']", "//a/%s[. = '%s']", "//p:%s[. = '%s']"}
	var set []string
	for i := 0; i < 8+rng.Intn(12); i++ {
		q := fmt.Sprintf(shapes[rng.Intn(len(shapes))], labels[rng.Intn(len(labels))], groupLiterals[rng.Intn(len(groupLiterals))])
		set = append(set, q)
		if rng.Intn(4) == 0 {
			set = append(set, q) // a duplicate: one bucket, two members
		}
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		set = append(set, fmt.Sprintf(groupNearMisses[rng.Intn(len(groupNearMisses))], labels[rng.Intn(len(labels))], groupLiterals[rng.Intn(5)]))
	}
	set = append(set, datagen.DefaultQueryGen.Generate(rng), fmt.Sprintf("//a[. = '%s'] | //b[. = 'y']", groupLiterals[rng.Intn(5)]))
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// machineSet is a query set as engine machines: one per union branch, with
// the union branches marked (they deliver unordered, like QuerySet's).
type machineSet struct {
	branches []*xpath.Query
	union    []bool
}

func parseMachines(t *testing.T, sources []string) machineSet {
	t.Helper()
	var ms machineSet
	for _, src := range sources {
		bs, err := xpath.ParseUnion(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for range bs {
			ms.union = append(ms.union, len(bs) > 1)
		}
		ms.branches = append(ms.branches, bs...)
	}
	return ms
}

// emitted is one result with the machine that emitted it.
type emitted struct {
	machine int
	twigm.Result
}

// evalPoisoned evaluates every machine of e over doc through the poisoning
// front-end and returns the emission sequence and one Stats per machine.
func evalPoisoned(t *testing.T, e *engine.Engine, union []bool, doc string, opts twigm.Options) ([]emitted, []twigm.Stats) {
	t.Helper()
	out, stats, err := evalVia(t, e, union, doc, opts, saxtest.PoisonDriver)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// evalVia is evalPoisoned through the front-end wrap makes of the session's
// scanner (engine.Snapshot.StreamVia), returning the evaluation's error.
func evalVia(t *testing.T, e *engine.Engine, union []bool, doc string, opts twigm.Options, wrap func(sax.Driver) sax.Driver) ([]emitted, []twigm.Stats, error) {
	t.Helper()
	snap := e.Snapshot()
	var out []emitted
	rows := &machineRows{rows: make([]twigm.Stats, snap.Len())}
	plan := engine.Plan{Options: opts, Rows: rows}
	if opts.Ordered && union != nil {
		plan.Unordered = func(d int) bool { return union[d] }
	}
	plan.Options.EmitFrom = func(d int, r twigm.Result) error {
		out = append(out, emitted{d, r})
		return nil
	}
	_, err := snap.StreamVia(context.Background(), strings.NewReader(doc), plan, wrap)
	if rows.made != 1 {
		t.Fatalf("rows made %d times, want once", rows.made)
	}
	return out, rows.rows, err
}

// machineRows is an engine.Rows of one row per machine, which a test reads
// machine by machine. made counts the calls of Make.
type machineRows struct {
	rows []twigm.Stats
	made int
}

func (m *machineRows) Make() []twigm.Stats {
	m.made++
	return m.rows
}

func (*machineRows) Row(machine int) int { return machine }

// byMachine splits an emission sequence per machine.
func byMachine(em []emitted, n int) [][]twigm.Result {
	out := make([][]twigm.Result, n)
	for _, e := range em {
		out[e.machine] = append(out[e.machine], e.Result)
	}
	return out
}

func mustEngineOf(t *testing.T, cfg engine.Config, branches []*xpath.Query) *engine.Engine {
	t.Helper()
	e, err := engine.NewConfigured(cfg, branches...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// assertGroupsAgree holds grouped evaluation of sources over doc against the
// same machines ungrouped (the emission sequence across machines) and, when
// solo is set, against each query evaluated alone (results and statistics).
func assertGroupsAgree(t *testing.T, name string, grouped *engine.Engine, sources []string, doc string, opts twigm.Options, solo bool) {
	t.Helper()
	ms := parseMachines(t, sources)
	ungrouped := mustEngineOf(t, engine.Config{DisablePrefixSharing: true}, ms.branches)
	got, gotStats := evalPoisoned(t, grouped, ms.union, doc, opts)
	want, _ := evalPoisoned(t, ungrouped, ms.union, doc, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: grouped emission sequence diverges from ungrouped\nqueries %q\ndoc %q\ngrouped   %+v\nungrouped %+v", name, sources, doc, got, want)
	}
	if !solo {
		return
	}
	perMachine := byMachine(got, len(ms.branches))
	d := 0
	for _, src := range sources {
		alone := parseMachines(t, []string{src})
		soloOut, soloStats := evalPoisoned(t, mustEngineOf(t, engine.Config{}, alone.branches), alone.union, doc, opts)
		for b, res := range byMachine(soloOut, len(alone.branches)) {
			if !reflect.DeepEqual(perMachine[d+b], res) {
				t.Fatalf("%s: %q in the set diverges from itself alone\nset   %+v\nalone %+v", name, src, perMachine[d+b], res)
			}
			if gotStats[d+b] != soloStats[b] {
				t.Fatalf("%s: %q statistics in the set diverge from alone\nset   %+v\nalone %+v", name, src, gotStats[d+b], soloStats[b])
			}
		}
		d += len(alone.branches)
	}
}

// TestValueGroupDifferential: random group-heavy sets over random trees and
// the group corpus, in every mode, grouped against ungrouped and solo.
func TestValueGroupDifferential(t *testing.T) {
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(30))
	engaged := 0
	for round := 0; round < rounds; round++ {
		sources := randomGroupSet(rng)
		grouped := mustEngineOf(t, engine.Config{}, parseMachines(t, sources).branches)
		if m := grouped.Metrics(); m.ValueGroups > 0 && m.ValueKeyedMachines > m.ValueGroups {
			engaged++
		}
		docs := append([]string{datagen.ChurnRandomTree.Generate(rng)}, groupDocs[rng.Intn(len(groupDocs))])
		for di, doc := range docs {
			for _, opts := range []twigm.Options{{}, {Ordered: true}, {CountOnly: true}, {Ordered: true, CountOnly: true}} {
				name := fmt.Sprintf("round %d doc %d %+v", round, di, opts)
				assertGroupsAgree(t, name, grouped, sources, doc, opts, true)
			}
		}
	}
	if engaged < rounds/2 {
		t.Fatalf("only %d of %d rounds formed a value group of several members: the campaign lost its subject", engaged, rounds)
	}
}

// TestValueGroupNearMissesStayOrdinary: the shapes next to a value-keyed one
// are machines of their own; the value-keyed ones are not.
func TestValueGroupNearMissesStayOrdinary(t *testing.T) {
	for _, shape := range groupNearMisses {
		src := fmt.Sprintf(shape, "a", "x")
		e := mustEngineOf(t, engine.Config{}, parseMachines(t, []string{src}).branches)
		if m := e.Metrics(); m.ValueKeyedMachines != 0 {
			t.Fatalf("%s was grouped: %+v", src, m)
		}
	}
	keyed := []string{"//a[. = 'x']", "/r/a[. = '']", "//r//p:a[. = 'x y']", "//a/b[.='x']", `//a[. = "x"]`}
	e := mustEngineOf(t, engine.Config{}, parseMachines(t, keyed).branches)
	if m := e.Metrics(); m.ValueKeyedMachines != len(keyed) {
		t.Fatalf("%d of %q grouped, want all: %+v", m.ValueKeyedMachines, keyed, m)
	}
	if m := mustEngineOf(t, engine.Config{DisablePrefixSharing: true}, parseMachines(t, keyed).branches).Metrics(); m.ValueGroups != 0 {
		t.Fatalf("DisablePrefixSharing left value groups on: %+v", m)
	}
}

// groupChurn is a live engine and the sources of its machines in dense order.
type groupChurn struct {
	t       *testing.T
	e       *engine.Engine
	progs   []*twigm.Program
	sources []string
}

func (c *groupChurn) add(src string) {
	p, err := c.e.Add(xpath.MustParse(src))
	if err != nil {
		c.t.Fatal(err)
	}
	c.progs, c.sources = append(c.progs, p), append(c.sources, src)
}

func (c *groupChurn) remove(i int) {
	if err := c.e.Remove(c.progs[i]); err != nil {
		c.t.Fatal(err)
	}
	c.progs = append(c.progs[:i:i], c.progs[i+1:]...)
	c.sources = append(c.sources[:i:i], c.sources[i+1:]...)
}

func (c *groupChurn) replace(i int, src string) {
	p, err := c.e.Replace(c.progs[i], xpath.MustParse(src))
	if err != nil {
		c.t.Fatal(err)
	}
	c.progs[i], c.sources[i] = p, src
}

// check holds the churned engine against a fresh build of its sources — the
// same value groups, the same statistics — and against the ungrouped
// machines, on every corpus.
func (c *groupChurn) check(step string) {
	c.t.Helper()
	fresh := mustEngineOf(c.t, engine.Config{}, parseMachines(c.t, c.sources).branches)
	got, want := c.e.Metrics(), fresh.Metrics()
	if got.ValueGroups != want.ValueGroups || got.ValueKeyedMachines != want.ValueKeyedMachines || got.Live != want.Live {
		c.t.Fatalf("%s: churned engine has %d groups of %d machines (%d live), a fresh build %d of %d (%d)", step,
			got.ValueGroups, got.ValueKeyedMachines, got.Live, want.ValueGroups, want.ValueKeyedMachines, want.Live)
	}
	ms := parseMachines(c.t, c.sources)
	for di, doc := range groupDocs {
		for _, opts := range []twigm.Options{{}, {Ordered: true}} {
			name := fmt.Sprintf("%s doc %d %+v", step, di, opts)
			assertGroupsAgree(c.t, name, c.e, c.sources, doc, opts, false)
			got, gotStats := evalPoisoned(c.t, c.e, ms.union, doc, opts)
			want, wantStats := evalPoisoned(c.t, fresh, ms.union, doc, opts)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
				c.t.Fatalf("%s: churned engine diverges from a fresh build\nchurned %+v\n%+v\nfresh   %+v\n%+v", name, got, gotStats, want, wantStats)
			}
		}
	}
}

// TestValueGroupChurn drives every way a group changes: a member joining
// under a new literal or an existing one, leaving, changing its literal or
// its shape, the last member leaving, and the slot and trie compactions that
// renumber what groups are keyed by. Each step is checked against a fresh
// build and the ungrouped machines.
func TestValueGroupChurn(t *testing.T) {
	c := &groupChurn{t: t, e: mustEngineOf(t, engine.Config{}, nil)}
	for _, src := range []string{"//a[. = 'x']", "//a[. = 'y']", "//r/a[. = 'x']", "//b[. = '2']", "//a"} {
		c.add(src)
	}
	c.check("initial")
	groups := func() int { return c.e.Metrics().ValueGroups }

	c.add("//a[. = 'xy']")
	c.check("join under a new literal")
	c.add("//a[. = 'x']")
	c.check("join as a duplicate")
	c.remove(1)
	c.check("leave")
	c.replace(0, "//a[. = 'y']")
	c.check("change of literal")
	c.replace(0, "//a[. != 'y']")
	c.check("change of shape: member to ordinary")
	c.replace(3, "//b[. = 'x']") // was //a
	c.check("change of shape: ordinary to member")
	before := groups()
	c.remove(1) // //r/a[. = 'x'], its group's only member
	if groups() != before-1 {
		t.Fatalf("the last member left its group, but %d groups remain of %d", groups(), before)
	}
	c.check("last member leaves")

	compactions := c.e.Metrics().Compactions
	for i := 0; i < 40; i++ {
		c.add(fmt.Sprintf("//c[. = '%d']", i))
	}
	c.check("a large group")
	for len(c.sources) > 6 {
		c.remove(len(c.sources) - 2)
	}
	if c.e.Metrics().Compactions == compactions {
		t.Fatal("no slot compaction: the test lost a subject")
	}
	c.check("slot compaction")

	trieCompactions := c.e.Metrics().TrieCompactions
	for i := 0; i < 30; i++ {
		c.add(fmt.Sprintf("//r/x%d/y%d/a[. = 'x']", i, i))
	}
	c.add("//r//a[. = 'x']")
	for i := 0; i < 30; i++ {
		c.remove(len(c.sources) - 2)
	}
	if c.e.Metrics().TrieCompactions == trieCompactions {
		t.Fatal("no trie compaction: the test lost a subject")
	}
	c.check("trie compaction")

	rng := rand.New(rand.NewSource(31))
	for step := 0; step < 30; step++ {
		pool := randomGroupSet(rng)
		switch src := pool[0]; {
		case strings.Contains(src, "|"):
			// Engine machines are single paths; unions are QuerySet's.
		case rng.Intn(3) == 0 && len(c.sources) > 0:
			c.remove(rng.Intn(len(c.sources)))
		case rng.Intn(2) == 0 && len(c.sources) > 0:
			c.replace(rng.Intn(len(c.sources)), src)
		default:
			c.add(src)
		}
		if step%5 == 4 {
			c.check(fmt.Sprintf("random step %d", step))
		}
	}
}
