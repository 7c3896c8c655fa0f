package integration

import (
	"math/rand"
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

// FuzzQueryVsDOM: fuzzer-chosen (query, document) pairs through the whole
// stack — xpath, twigm, the engine — against the DOM oracle. The query runs in
// a QuerySet beside //*, which records every element, so the two machines'
// fragments are spans of one recording: a span that outlives or overruns its
// bytes shows up as a wrong value on either side. Beside them runs each
// branch's equality sibling (groupSibling), which shares the branch's value
// group when the branch is value-keyed. A '*' step turns the scanner's
// projection off, so the query and its siblings also run without //*,
// projected and unprojected, which must agree byte for byte
// (projection_test.go). Queries that do not compile and documents that do not
// parse are skipped.
//
//	go test -fuzz=FuzzQueryVsDOM -fuzztime=10m ./internal/integration
func FuzzQueryVsDOM(f *testing.F) {
	rng := rand.New(rand.NewSource(20260725))
	gen := datagen.DefaultQueryGen
	var queries []string
	for i := 0; i < 16; i++ {
		gen.ConjunctiveOnly = i%2 == 0
		queries = append(queries, gen.Generate(rng))
	}
	queries = append(queries, "//a", "//a//a", "//a[b]//c", "//*[.='x']", "//a/@k", "//r/a/text()", "//p:a | //b",
		"//a[. = 'x']", "//r/a[. = '']", "//a//a[. = 'xy'] | //b[. = '1']")
	for i, d := range saxtest.EdgeDocs() {
		f.Add(queries[i%len(queries)], d.Doc)
	}
	for i, q := range queries {
		f.Add(q, datagen.ChurnRandomTree.Generate(rand.New(rand.NewSource(int64(i)))))
	}
	f.Fuzz(func(t *testing.T, src, doc string) {
		if len(src) > 256 || len(doc) > 1<<14 {
			return
		}
		branches, err := xpath.ParseUnion(src)
		if err != nil {
			return
		}
		set := []string{src, "//*"}
		for _, b := range branches {
			if sib, ok := groupSibling(b); ok {
				set = append(set, sib)
			}
		}
		qs, err := vitex.NewQuerySet(set...)
		if err != nil {
			return
		}
		d, err := dom.Build(xmlscan.NewScanner(strings.NewReader(doc)))
		if err != nil {
			return
		}
		got := make([][]string, len(set))
		_, err = qs.Stream(strings.NewReader(doc), vitex.Options{Ordered: true}, func(sr vitex.SetResult) error {
			got[sr.QueryIndex] = append(got[sr.QueryIndex], sr.Value)
			return nil
		})
		if err != nil {
			t.Fatalf("%q over a document the DOM parsed: %v", src, err)
		}
		for i, q := range set {
			want := oracleUnionResults(t, d, branches)
			if i > 0 {
				want = oracleUnionResults(t, d, []*xpath.Query{xpath.MustParse(q)})
			}
			if !equal(got[i], want) {
				t.Fatalf("query %d of %q disagrees with the DOM\ndoc: %q\n got: %q\nwant: %q", i, set, doc, got[i], want)
			}
		}
		projected := append([]string{src}, set[2:]...)
		if err := assertProjectionInvisible(t, "fuzz", projected, doc, twigm.Options{Ordered: true}); err != nil {
			t.Fatalf("%q over a document the DOM parsed: %v", projected, err)
		}
	})
}

// groupSibling returns q with its output step's predicates replaced by an
// equality on another literal: for a value-keyed q, a member of the same value
// group; for any other q ending in an element step, a query of that shape.
func groupSibling(q *xpath.Query) (string, bool) {
	out := q.Output
	if out.Kind != xpath.Element {
		return "", false
	}
	lit := "x"
	if out.Pred != nil && out.Pred.Op == xpath.PredSelf && out.Pred.Self.Literal == lit {
		lit = "y"
	}
	saved := *out
	out.Pred, out.Cmp = &xpath.PredExpr{Op: xpath.PredSelf, Self: &xpath.Comparison{Op: xpath.OpEq, Literal: lit}}, nil
	defer func() { *out = saved }()
	return q.String(), true
}
