package integration

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"

	vitex "repro"
)

// TestQuerySetMatchesIndividualRuns: evaluating N random queries in one
// shared scan must give exactly the per-query results of N separate runs.
func TestQuerySetMatchesIndividualRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		n := 2 + rng.Intn(4)
		sources := make([]string, n)
		for i := range sources {
			sources[i] = datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		}
		qs, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shared := make([][]string, n)
		_, err = qs.Stream(strings.NewReader(doc), vitex.Options{Ordered: true}, func(sr vitex.SetResult) error {
			shared[sr.QueryIndex] = append(shared[sr.QueryIndex], sr.Value)
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, src := range sources {
			q := vitex.MustCompile(src)
			solo, err := q.EvaluateString(doc)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, i, err)
			}
			if !equal(shared[i], solo) {
				t.Fatalf("trial %d query %q:\nshared %q\nsolo   %q\ndoc: %s", trial, src, shared[i], solo, doc)
			}
		}
	}
}

// TestSerializeRescanRoundTrip: DOM-serializing a random document and
// rescanning the serialization must produce an identical tree (canonical
// serialization is a fixed point).
func TestSerializeRescanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		d1, err := dom.Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		s1 := d1.Root.Serialize()
		d2, err := dom.Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(s1))))
		if err != nil {
			t.Fatalf("trial %d rescan: %v\nserialized: %s", i, err, s1)
		}
		if s2 := d2.Root.Serialize(); s2 != s1 {
			t.Fatalf("trial %d: serialization not a fixed point:\n1: %s\n2: %s", i, s1, s2)
		}
	}
}

// TestOrderedDeliveryIsSorted: under random workloads, Ordered mode must
// deliver strictly increasing seqs, and the seq order must equal ascending
// NodeOffset order (both are document order).
func TestOrderedDeliveryIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		src := datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		prog, err := twigm.Compile(xpath.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		var seqs, offs []int64
		_, _, err = twigm.Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())),
			twigm.Options{Ordered: true, EmitFrom: func(_ int, r twigm.Result) error {
				seqs = append(seqs, r.Seq)
				offs = append(offs, r.NodeOffset)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
			t.Fatalf("trial %d: seqs out of order: %v (%s over %s)", trial, seqs, src, doc)
		}
		if !sort.SliceIsSorted(offs, func(i, j int) bool { return offs[i] < offs[j] }) {
			t.Fatalf("trial %d: offsets out of order: %v (%s over %s)", trial, offs, src, doc)
		}
	}
}

// TestUnionAgainstOracleRandomized mirrors the facade union test inside the
// integration campaign, with three-branch unions.
func TestUnionAgainstOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for i := 0; i < trials; i++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		branches := []string{
			datagen.RandomQuery(rng, datagen.DefaultRandomTree, false),
			datagen.RandomQuery(rng, datagen.DefaultRandomTree, false),
			datagen.RandomQuery(rng, datagen.DefaultRandomTree, false),
		}
		src := strings.Join(branches, " | ")
		d, err := dom.Build(saxtest.PoisonDriver(xmlscan.NewScanner(strings.NewReader(doc))))
		if err != nil {
			t.Fatal(err)
		}
		nodes := dom.EvalString(d, src)
		want := make([]string, 0, len(nodes))
		for _, n := range nodes {
			want = append(want, n.Serialize())
		}
		q := vitex.MustCompile(src)
		got, err := q.EvaluateString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(got, want) {
			t.Fatalf("trial %d: %s over %s\n got %q\nwant %q", i, src, doc, got, want)
		}
	}
}
