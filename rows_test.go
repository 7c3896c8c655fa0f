package vitex

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// rowsGolden holds what Stream returns for every rowsGoldenCases entry: its
// rows, byte for byte, the number of results it delivered and its error.
const rowsGolden = "testdata/rows.golden"

// rowsGoldenCase is one Stream call of TestStreamRowsGolden.
type rowsGoldenCase struct {
	name   string
	qs     *QuerySet
	doc    string
	opts   Options
	failAt int // the result whose emit fails, 0 for none
}

// rowsGoldenCases are the evaluations whose rows the golden file pins: a
// 1,000-query portal set with several members under one literal and ordinary
// machines beside its value groups, a set holding union queries in both
// delivery orders, the protein cell's three queries, emits that fail in the
// middle of a document, and a set after an Add and a Remove.
func rowsGoldenCases(t *testing.T) []rowsGoldenCase {
	t.Helper()
	set := func(sources ...string) *QuerySet {
		qs, err := NewQuerySet(sources...)
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	portal := set(append(datagen.OverlapQueries(1000, 0.9, 20, 4, 1),
		"//channel//article/head/f3[. = 'v1']", "//channel//article/head/f3[. = 'v1']",
		"//article/head", "//channel//title")...)
	unions := set(append(datagen.OverlapQueries(100, 0.9, 20, 4, 2),
		"//channel//article/head/f3[. = 'v1'] | //channel//article/head/f5[. = 'v2']",
		"//article/head/f2 | //article/head/f2[. = 'v0']",
		"//article/head | //channel//title",
		"//nothing-here | //nor-here",
		"//trade[symbol='ACME']/price | //trade/symbol",
		"//trade/price | //trade[price > 10]/price")...)
	protein := set(datagen.PaperProteinQuery,
		"//ProteinEntry[organism/source='Homo sapiens']/protein/name",
		"//reference[year>1995]/authors/author")
	churned := set(append(datagen.OverlapQueries(1000, 0.9, 20, 4, 3),
		"//channel//article/head/f7[. = 'v2']", "//article/head")...)
	for _, src := range []string{"//channel//article/head/f7[. = 'v2']", "//channel//article/head/f9"} {
		if _, err := churned.Add(MustCompile(src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := churned.Remove(10); err != nil {
		t.Fatal(err)
	}
	portalDoc := datagen.Portal{Articles: 6, Fields: 20, Values: 4, Seed: 1}.String()
	portalDoc2 := datagen.Portal{Articles: 3, Fields: 20, Values: 4, Seed: 2}.String()
	tickerDoc := datagen.Ticker{Trades: 12, Seed: 1}.String()
	proteinDoc := datagen.Protein{TargetBytes: 32 << 10, Seed: 1}.String()
	return []rowsGoldenCase{
		{name: "portal/doc1", qs: portal, doc: portalDoc},
		{name: "portal/doc1/ordered", qs: portal, doc: portalDoc, opts: Options{Ordered: true}},
		{name: "portal/doc2", qs: portal, doc: portalDoc2},
		{name: "portal/emit fails at 5", qs: portal, doc: portalDoc, failAt: 5},
		{name: "unions/portal", qs: unions, doc: portalDoc},
		{name: "unions/portal/ordered", qs: unions, doc: portalDoc, opts: Options{Ordered: true}},
		{name: "unions/ticker", qs: unions, doc: tickerDoc},
		{name: "unions/ticker/ordered", qs: unions, doc: tickerDoc, opts: Options{Ordered: true}},
		{name: "unions/portal/ordered/emit fails at 3", qs: unions, doc: portalDoc, opts: Options{Ordered: true}, failAt: 3},
		{name: "protein", qs: protein, doc: proteinDoc},
		{name: "churned/doc1", qs: churned, doc: portalDoc},
		{name: "churned/doc2", qs: churned, doc: portalDoc2},
	}
}

// render streams the case and renders what Stream returned: the number of
// results and the error, then the rows, a run of equal rows on one line, each
// row's fields in declaration order (rowsGoldenFields).
func (c rowsGoldenCase) render() string {
	delivered := 0
	rows, err := c.qs.Stream(strings.NewReader(c.doc), c.opts, func(SetResult) error {
		if delivered++; delivered == c.failAt {
			return errors.New("stop")
		}
		return nil
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "results %d, error %v, %d rows\n", delivered, err, len(rows))
	for q := 0; q < len(rows); {
		end := q + 1
		for end < len(rows) && rows[end] == rows[q] {
			end++
		}
		fmt.Fprintf(&sb, "%d-%d %v\n", q, end-1, rows[q])
		q = end
	}
	return sb.String()
}

// rowsGoldenFields is the golden file's first line: the field names of a
// row, in the order render prints their values.
func rowsGoldenFields() string {
	var names []string
	st := reflect.TypeFor[Stats]()
	for i := range st.NumField() {
		names = append(names, st.Field(i).Name)
	}
	return "fields " + strings.Join(names, " ")
}

// TestStreamRowsGolden pins Stream's rows: every case, streamed twice (the
// second time on a pooled session the first left behind), must render
// exactly as rowsGolden has it.
func TestStreamRowsGolden(t *testing.T) {
	raw, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	fields, entries, _ := strings.Cut(string(raw), "\n")
	if want := rowsGoldenFields(); fields != want {
		t.Fatalf("%s renders rows as %s, Stats has %s", rowsGolden, fields, want)
	}
	want := map[string]string{}
	for _, entry := range strings.Split(entries, "== ")[1:] {
		name, body, _ := strings.Cut(entry, "\n")
		want[name] = body
	}
	cases := rowsGoldenCases(t)
	if len(want) != len(cases) {
		t.Fatalf("%s has %d entries, want %d", rowsGolden, len(want), len(cases))
	}
	for _, c := range cases {
		exp, ok := want[c.name]
		if !ok {
			t.Fatalf("%s has no entry %q", rowsGolden, c.name)
		}
		for round := range 2 {
			if got := c.render(); got != exp {
				t.Fatalf("%s, round %d:\ngot:\n%s\nwant:\n%s", c.name, round, got, exp)
			}
		}
	}
}
