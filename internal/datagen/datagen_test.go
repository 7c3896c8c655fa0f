package datagen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

// wellFormed checks a generated document parses with the std front-end.
func wellFormed(t *testing.T, doc string) (elements, texts int) {
	t.Helper()
	h := sax.PerEvent(func(ev *sax.Event) error {
		switch ev.Kind {
		case sax.StartElement:
			elements++
		case sax.Text:
			texts++
		}
		return nil
	})
	if err := saxtest.NewStdDriver(strings.NewReader(doc)).Run(h); err != nil {
		t.Fatalf("generated document malformed: %v\nhead: %.200s", err, doc)
	}
	return
}

func TestPaperFigure1WellFormed(t *testing.T) {
	els, _ := wellFormed(t, PaperFigure1)
	if els != 10 {
		t.Fatalf("figure 1 has %d elements, want 10", els)
	}
}

func TestProteinDeterministic(t *testing.T) {
	p := Protein{TargetBytes: 50 << 10, Seed: 7}
	a, b := p.String(), p.String()
	if a != b {
		t.Fatal("protein generator not deterministic")
	}
}

func TestProteinShape(t *testing.T) {
	p := Protein{TargetBytes: 200 << 10, Seed: 1}
	doc := p.String()
	if int64(len(doc)) < p.TargetBytes {
		t.Fatalf("size %d < target %d", len(doc), p.TargetBytes)
	}
	if int64(len(doc)) > p.TargetBytes*2 {
		t.Fatalf("size %d overshoots target %d", len(doc), p.TargetBytes)
	}
	wellFormed(t, doc)
	entries, withRef := p.Counts()
	if entries == 0 || withRef == 0 || withRef >= entries {
		t.Fatalf("counts: entries=%d withRef=%d", entries, withRef)
	}
	if got := strings.Count(doc, "<ProteinEntry "); got != entries {
		t.Fatalf("Counts()=%d but document has %d entries", entries, got)
	}
	// ~7/8 of entries carry references.
	if ratio := float64(withRef) / float64(entries); ratio < 0.75 || ratio > 0.98 {
		t.Fatalf("reference ratio %.2f outside [0.75, 0.98]", ratio)
	}
}

func TestProteinStreamingMatchesString(t *testing.T) {
	p := Protein{TargetBytes: 30 << 10, Seed: 3}
	var sb strings.Builder
	n, err := p.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != p.String() {
		t.Fatal("WriteTo and String disagree")
	}
	if n != int64(len(sb.String())) {
		t.Fatalf("reported %d bytes, wrote %d", n, sb.Len())
	}
}

func TestBookFigure1Shape(t *testing.T) {
	doc := Figure1Shape.String()
	els, _ := wellFormed(t, doc)
	// book + 3 sections + 3 tables + cell + position + author = 10
	if els != 10 {
		t.Fatalf("figure1 shape has %d elements, want 10", els)
	}
	for _, want := range []string{"<section>", "<table>", "<cell>", "<position>", "<author>"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("missing %s in:\n%s", want, doc)
		}
	}
}

func TestBookRepeat(t *testing.T) {
	b := Book{SectionDepth: 2, TableDepth: 2, Repeat: 5, AuthorEvery: 2, PositionEvery: 1}
	doc := b.String()
	wellFormed(t, doc)
	if got := strings.Count(doc, "<cell>"); got != 5 {
		t.Fatalf("cells = %d, want 5", got)
	}
	if got := strings.Count(doc, "<author>"); got != 3 { // copies 0,2,4
		t.Fatalf("authors = %d, want 3", got)
	}
}

func TestRecursiveChain(t *testing.T) {
	doc := RecursiveChain(5)
	wellFormed(t, doc)
	if strings.Count(doc, "<a>") != 5 || strings.Count(doc, "<b/>") != 1 {
		t.Fatalf("bad chain: %s", doc)
	}
	if q := ChainQuery(3); q != "//a//a//a//b" {
		t.Fatalf("ChainQuery(3) = %q", q)
	}
}

func TestRandomTreeWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		doc := DefaultRandomTree.Generate(rng)
		wellFormed(t, doc)
	}
}

func TestChurnRandomTreeWellFormedAndDeterministic(t *testing.T) {
	a := ChurnRandomTree.Generate(rand.New(rand.NewSource(11)))
	b := ChurnRandomTree.Generate(rand.New(rand.NewSource(11)))
	if a != b {
		t.Fatal("seeded generation not reproducible")
	}
	rng := rand.New(rand.NewSource(42))
	selfNested := 0
	for i := 0; i < 200; i++ {
		doc := ChurnRandomTree.Generate(rng)
		wellFormed(t, doc)
		for _, l := range ChurnRandomTree.Labels {
			if strings.Contains(doc, "<"+l+"><"+l+">") {
				selfNested++
				break
			}
		}
	}
	// The self-nesting bias must actually produce recursive label chains.
	if selfNested < 20 {
		t.Fatalf("only %d/200 documents had directly self-nested labels", selfNested)
	}
}

func TestQueryGenDeterministicAndShaped(t *testing.T) {
	g := DefaultQueryGen
	a := g.Generate(rand.New(rand.NewSource(5)))
	b := g.Generate(rand.New(rand.NewSource(5)))
	if a != b {
		t.Fatal("seeded generation not reproducible")
	}
	rng := rand.New(rand.NewSource(42))
	unions, preds, ors := 0, 0, 0
	for i := 0; i < 500; i++ {
		q := g.Generate(rng)
		if q == "" || !strings.HasPrefix(q, "/") {
			t.Fatalf("bad query %q", q)
		}
		// Parsing is validated in the integration campaign (avoiding an
		// import cycle here); check bracket/paren balance and coverage.
		for _, pair := range [][2]string{{"[", "]"}, {"(", ")"}} {
			if strings.Count(q, pair[0]) != strings.Count(q, pair[1]) {
				t.Fatalf("unbalanced %s%s in %q", pair[0], pair[1], q)
			}
		}
		if strings.Contains(q, " | ") {
			unions++
		}
		if strings.Contains(q, "[") {
			preds++
		}
		if strings.Contains(q, " or ") {
			ors++
		}
	}
	// The grammar knobs must all fire with real frequency.
	if unions < 50 || preds < 100 || ors < 25 {
		t.Fatalf("thin coverage: unions=%d preds=%d ors=%d", unions, preds, ors)
	}
	g.ConjunctiveOnly = true
	for i := 0; i < 200; i++ {
		if q := g.Generate(rng); strings.Contains(q, " or ") {
			t.Fatalf("ConjunctiveOnly emitted %q", q)
		}
	}
}

func TestRandomQueryParses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		q := RandomQuery(rng, DefaultRandomTree, i%2 == 0)
		if q == "" {
			t.Fatal("empty query")
		}
		// Parsing is validated in the integration package (avoiding an
		// import cycle here); check basic shape.
		if !strings.HasPrefix(q, "/") {
			t.Fatalf("query %q must be absolute", q)
		}
	}
}

func TestTicker(t *testing.T) {
	tk := Ticker{Trades: 50, Seed: 9}
	doc := tk.String()
	els, _ := wellFormed(t, doc)
	if els != 1+50*4 { // ticker + (trade, symbol, price, volume) each
		t.Fatalf("elements = %d", els)
	}
	if tk.String() != doc {
		t.Fatal("ticker not deterministic")
	}
}
