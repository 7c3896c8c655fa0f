package vitex

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/sax/saxtest"
)

// unionOracle evaluates via the DOM engine's union merge.
func unionOracle(t *testing.T, doc, query string) []string {
	t.Helper()
	d, err := dom.Build(saxtest.NewStdDriver(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("dom build: %v", err)
	}
	nodes := dom.EvalString(d, query)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Serialize())
	}
	return out
}

func assertUnion(t *testing.T, doc, query string) {
	t.Helper()
	want := unionOracle(t, doc, query)
	q := MustCompile(query)
	got, err := q.EvaluateString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s over %q:\n got %q\nwant %q", query, doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s over %q: result %d = %q, want %q", query, doc, i, got[i], want[i])
		}
	}
}

func TestUnionBasic(t *testing.T) {
	doc := "<r><a>1</a><b>2</b><c>3</c></r>"
	assertUnion(t, doc, "//a | //b")
	assertUnion(t, doc, "//b | //a") // document order regardless of branch order
	assertUnion(t, doc, "//a | //b | //c")
	assertUnion(t, doc, "//a | //z")
	assertUnion(t, doc, "//z | //y")
}

func TestUnionDeduplicates(t *testing.T) {
	// Both branches select the same node: it must appear once.
	doc := "<r><a><b/></a></r>"
	assertUnion(t, doc, "//b | //a/b")
	assertUnion(t, doc, "//a | //a")
	q := MustCompile("//b | //a/b")
	n := 0
	_, err := q.Stream(strings.NewReader(doc), Options{}, func(Result) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("unordered union emitted %d times", n)
	}
}

func TestUnionMixedKinds(t *testing.T) {
	doc := `<r><a id="1">x</a><b id="2">y</b></r>`
	assertUnion(t, doc, "//a/@id | //b/@id")
	assertUnion(t, doc, "//a/text() | //b/text()")
	assertUnion(t, doc, "//a | //b/@id")
	// Attribute and element of the same element: element orders first.
	assertUnion(t, doc, "//a/@id | //a")
}

func TestUnionAttrsOfSameElement(t *testing.T) {
	doc := `<r><u x="1" y="2"/></r>`
	assertUnion(t, doc, "//u/@x | //u/@y")
	assertUnion(t, doc, "//u/@y | //u/@x") // attr document order preserved
}

func TestUnionWithPredicates(t *testing.T) {
	doc := "<r><p><q>5</q><m/></p><p><q>9</q></p></r>"
	assertUnion(t, doc, "//p[m]/q | //p[q>8]/q")
	assertUnion(t, doc, "//p[m] | //p[q=9]")
}

func TestUnionIntrospection(t *testing.T) {
	q := MustCompile("//a[b] | //c")
	if q.Size() != 3 {
		t.Fatalf("Size = %d", q.Size())
	}
	if q.String() != "//a[b] | //c" {
		t.Fatalf("String = %q", q.String())
	}
	if !strings.Contains(q.MachineDescription(), "|\n") {
		t.Fatalf("MachineDescription:\n%s", q.MachineDescription())
	}
}

func TestUnionCount(t *testing.T) {
	q := MustCompile("//a | //b")
	n, err := q.Count(strings.NewReader("<r><a/><b/><a/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count = %d", n)
	}
}

func TestUnionStatsMerged(t *testing.T) {
	q := MustCompile("//a | //b")
	stats, err := q.Stream(strings.NewReader("<r><a/><b/></r>"), Options{CountOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushes != 2 || stats.Events == 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestUnionInQuerySet(t *testing.T) {
	qs, err := NewQuerySet("//a | //b", "//c")
	if err != nil {
		t.Fatal(err)
	}
	doc := "<r><a/><b/><c/><a/></r>"
	counts, err := qs.Counts(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// Ordered union inside a set.
	var values []string
	_, err = qs.Stream(strings.NewReader("<r><b>2</b><a>1</a></r>"), Options{Ordered: true}, func(sr SetResult) error {
		if sr.QueryIndex == 0 {
			values = append(values, sr.Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 || values[0] != "<b>2</b>" || values[1] != "<a>1</a>" {
		t.Fatalf("ordered union in set: %q", values)
	}
}

// Randomized union equivalence against the DOM oracle.
func TestUnionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for i := 0; i < trials; i++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		q1 := datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		q2 := datagen.RandomQuery(rng, datagen.DefaultRandomTree, false)
		assertUnion(t, doc, q1+" | "+q2)
	}
}

func TestUnionParseErrors(t *testing.T) {
	for _, src := range []string{"//a |", "| //a", "//a | [b]", "//a[b | c]"} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}
