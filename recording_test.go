package vitex

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax/saxtest"
)

// TestNestedResultsShareOneCopy: a fragment becomes a string only when it is
// delivered, and in document order a nested result is a substring of its
// enclosing result's string. Six tables nest in every copy of the book, each
// a result, so one document costs one copy per outermost table plus a
// constant — not one per table, and not one per enclosing result.
func TestNestedResultsShareOneCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled sessions at random under the race detector")
	}
	const copies, depth = 40, 6
	doc := datagen.Book{SectionDepth: 4, TableDepth: depth, Repeat: copies, AuthorEvery: 2, PositionEvery: 3}.String()
	q := MustCompile("//section//section//section//table")
	rd := strings.NewReader(doc)
	results := 0
	count := func(Result) error { results++; return nil }
	stream := func() {
		rd.Reset(doc)
		results = 0
		if _, err := q.Stream(rd, Options{Ordered: true}, count); err != nil {
			t.Fatal(err)
		}
	}
	stream()
	if results != copies*depth {
		t.Fatalf("%d results, want %d", results, copies*depth)
	}
	if allocs := testing.AllocsPerRun(10, stream); allocs > copies+8 {
		t.Fatalf("%.0f allocations per document, want at most %d: one copy per outermost table", allocs, copies+8)
	}
}

// TestValuesOutliveTheRecording: a Value is an immutable string, valid for
// ever. Every Value of document k is kept while documents k+1…k+8 stream
// through the same pooled set — reusing its recorder's buffer — and must
// still equal a fresh evaluation of document k.
func TestValuesOutliveTheRecording(t *testing.T) {
	docs := []string{
		datagen.Book{SectionDepth: 4, TableDepth: 6, Repeat: 3, AuthorEvery: 2, PositionEvery: 3}.String(),
		datagen.Figure1Shape.String(),
		datagen.Book{SectionDepth: 2, TableDepth: 9, Repeat: 2, AuthorEvery: 1, PositionEvery: 2}.String(),
	}
	for _, d := range saxtest.EdgeDocs() {
		docs = append(docs, d.Doc)
	}
	queries := []string{
		"//section//section//section//table", "//section[.//position]//table[cell]",
		"//table", "//cell", "//*", "//a", "//a//a", "//r/*", "//a[b] | //b",
	}
	// Options.Parallel is deprecated and ignored; either setting must keep
	// the values.
	for _, par := range []int{0, 2} {
		for _, ordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("parallel=%d/ordered=%v", par, ordered), func(t *testing.T) {
				opts := Options{Parallel: par, Ordered: ordered}
				evaluate := func(qs *QuerySet, doc string) []SetResult {
					var out []SetResult
					if _, err := qs.Stream(strings.NewReader(doc), opts, func(sr SetResult) error {
						out = append(out, sr)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					return out
				}
				pooled, err := NewQuerySet(queries...)
				if err != nil {
					t.Fatal(err)
				}
				for k, doc := range docs {
					kept := evaluate(pooled, doc)
					for i := 1; i <= 8; i++ {
						evaluate(pooled, docs[(k+i)%len(docs)])
					}
					fresh, err := NewQuerySet(queries...)
					if err != nil {
						t.Fatal(err)
					}
					if want := evaluate(fresh, doc); !reflect.DeepEqual(kept, want) {
						t.Fatalf("document %d: kept values changed under later documents\nkept  %+v\nfresh %+v", k, kept, want)
					}
				}
			})
		}
	}
}
