package dom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/xpath"
)

func evalCount(t *testing.T, doc, query string) int {
	t.Helper()
	return len(EvalString(buildStd(doc), query))
}

func TestEvalFromDocumentNode(t *testing.T) {
	doc := `<a id="1"><b id="2">t</b></a>`
	// /a: child of document; //a: any element; //@id: any attribute;
	// //text(): any text node.
	if n := evalCount(t, doc, "/a"); n != 1 {
		t.Fatalf("/a = %d", n)
	}
	if n := evalCount(t, doc, "//*"); n != 2 {
		t.Fatalf("//* = %d", n)
	}
	if n := evalCount(t, doc, "//@id"); n != 2 {
		t.Fatalf("//@id = %d", n)
	}
	if n := evalCount(t, doc, "//text()"); n != 1 {
		t.Fatalf("//text() = %d", n)
	}
}

func TestEvalNilDocument(t *testing.T) {
	if got := Eval(nil, xpath.MustParse("//a")); got != nil {
		t.Fatalf("nil doc: %v", got)
	}
	if got := Eval(&Document{}, xpath.MustParse("//a")); got != nil {
		t.Fatalf("empty doc: %v", got)
	}
}

func TestAxisSetFromNonElements(t *testing.T) {
	// Predicates evaluated on text/attr contexts yield nothing for path
	// leaves (text nodes have no children).
	doc := "<r><a>x</a></r>"
	if n := evalCount(t, doc, "//a[b]"); n != 0 {
		t.Fatalf("text node grew children: %d", n)
	}
}

// Property (testing/quick): SortNodes is idempotent and produces strictly
// increasing Seq.
func TestSortNodesQuick(t *testing.T) {
	d := buildStd(datagen.PaperFigure1)
	var all []*Node
	var collect func(n *Node)
	collect = func(n *Node) {
		all = append(all, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(d.Root)
	prop := func(seed int64, dups uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random multiset of nodes with duplicates.
		var in []*Node
		for i := 0; i < 20+int(dups); i++ {
			in = append(in, all[rng.Intn(len(all))])
		}
		out := SortNodes(in)
		for i := 1; i < len(out); i++ {
			if out[i-1].Seq >= out[i].Seq {
				return false
			}
		}
		again := SortNodes(append([]*Node(nil), out...))
		if len(again) != len(out) {
			return false
		}
		for i := range out {
			if again[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): for random documents, StringValue equals the
// concatenation of text-node descendants in document order.
func TestStringValueQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		doc := datagen.DefaultRandomTree.Generate(rng)
		d := buildStd(doc)
		var expect func(n *Node) string
		expect = func(n *Node) string {
			var b strings.Builder
			for _, c := range n.Children {
				switch c.Kind {
				case TextNode:
					b.WriteString(c.Text)
				case ElementNode:
					b.WriteString(expect(c))
				}
			}
			return b.String()
		}
		var check func(n *Node)
		check = func(n *Node) {
			if n.Kind == ElementNode {
				if n.StringValue() != expect(n) {
					t.Fatalf("string-value mismatch on %s", doc)
				}
				for _, c := range n.Children {
					check(c)
				}
			}
		}
		check(d.Root)
	}
}

func TestAttrNodeCaching(t *testing.T) {
	d := buildStd(`<a x="1" y="2"/>`)
	n1 := d.Root.AttrNode(0)
	n2 := d.Root.AttrNode(0)
	if n1 != n2 {
		t.Fatal("attr nodes must be cached")
	}
	if n1.Kind != AttrNode || n1.Name != "x" || n1.Text != "1" || n1.Parent != d.Root {
		t.Fatalf("attr node: %+v", n1)
	}
}

func TestPredicateOnSpineWithMixedKinds(t *testing.T) {
	doc := `<r><a id="k">x<b/>y</a></r>`
	for q, want := range map[string]int{
		"//a[@id and text()='x']": 1,
		"//a[@id]/text()":         2,
		"//a[text()='y']/@id":     1,
		"//a[@id='k']//text()":    2,
	} {
		if n := evalCount(t, doc, q); n != want {
			t.Errorf("%s = %d, want %d", q, n, want)
		}
	}
}

func TestDocumentOrderAcrossKinds(t *testing.T) {
	doc := `<r><a id="1">t1</a><b id="2">t2</b></r>`
	d := buildStd(doc)
	nodes := EvalString(d, "//@id")
	if len(nodes) != 2 || nodes[0].Text != "1" || nodes[1].Text != "2" {
		t.Fatalf("attr order: %+v", nodes)
	}
	texts := EvalString(d, "//text()")
	if len(texts) != 2 || texts[0].Text != "t1" || texts[1].Text != "t2" {
		t.Fatalf("text order: %+v", texts)
	}
}
