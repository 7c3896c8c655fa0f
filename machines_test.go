package vitex

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/twigm"
)

// machinesGolden holds what compiling machinesCorpus gives, query by query:
// the machine trees and every piece of routing metadata the engine reads off
// a compiled program.
const machinesGolden = "testdata/machines.golden"

// machinesCorpus covers the shapes the builder compiles differently: the
// paper's queries, the portal, ticker, protein and book sets, unions,
// attribute, text() and '*' steps, prefixed names, numeric and string
// comparisons, and nested predicates.
func machinesCorpus() []string {
	corpus := []string{
		datagen.PaperQuery,
		datagen.PaperProteinQuery,
		"//ProteinEntry[organism/source='Homo sapiens']/protein/name",
		"//reference[year>1995]/authors/author",
		"//section[author]//table//cell",
		"//section//section//section//table",
		"//section[.//position]//table[cell]",
		datagen.ChainQuery(3),
		"//trade/price",
		"//trade[price > 10]/price",
		"//trade[symbol='ACME' and price >= 10.5]/@seq",
		"//channel//article/head",
		"//channel//title",
		"//channel//article/head/f3[. = 'v1']",
		"//channel//article/head/f3[. = \"it's\"]",
		"//channel//article/head/f3[. = 7]",
		"//channel//article/head/f3[. != 'v1']",
		"//channel//article[head/f3 = 'v1']/title",
		"/portal/channel//article/head/f3[. = 'v2']",
		"//channel//article/head/f3 | //channel//article/head/f5[. = 'v2']",
		"//article/head/f2 | //article/head/f2[. = 'v0']",
		"//nothing-here | //nor-here",
		"//a/@k",
		"//a//@k",
		"//@k | //@j",
		"//a[@k='1']",
		"//a[@k][@j < 3]",
		"//a[.//@id]/b",
		"//a/text()",
		"//a//text()",
		"//text()",
		"/r/b/text()",
		"//r//b/text()",
		"//b[text() = 'x']",
		"//a[text()]/b",
		"//*",
		"//r/*",
		"//*[@k]",
		"//*[a]/*",
		"//a/*/b[c]",
		"/*/a//*",
		"//p:a",
		"//p:a/b",
		"//a/@p:k",
		"//p:a[@q:k = 'v']/q:c",
		"//p:a | //a",
		"//a[b[c[d and e] or f]/g]//h",
		"//a[(b or c) and (d or e)]/f",
		"//a[b/c = 'x']",
		"//a[b > 2 or c <= -1.5]/d[. = 'y']",
		"//a[.]//b[. = '']",
		"/a/b/c/d",
		"/a",
		"//x[y]/z//w[@v != 'q']/text()",
	}
	corpus = append(corpus, datagen.OverlapQueries(12, 0.75, 5, 3, 1)...)
	return append(corpus, datagen.SparseTickerQueries(3, 2)...)
}

// renderMachines renders what the engine compiled for one query: its
// canonical text, size and machine trees, then each branch's program.
func renderMachines(sb *strings.Builder, q *Query, progs []*twigm.Program) {
	fmt.Fprintf(sb, "string %s\nsize %d\n", q.String(), q.Size())
	for b, p := range progs {
		var ids []int32
		for _, st := range p.Profile() {
			ids = append(ids, st.NameID)
		}
		fmt.Fprintf(sb, "branch %d nodes %d elems %v attrs %v roots %v wild %v roottext %v profile %q %v\n",
			b, p.NumNodes(), p.ElemNameIDs(), p.AttrNameIDs(), p.ValueRootIDs(),
			p.HasWildcardElem(), p.HasRootText(), twigm.ProfileString(p.Profile()), ids)
		sb.WriteString(p.Describe())
	}
}

// machinesGoldenText compiles the corpus four ways and renders each: every
// query on its own (Compile), all of them in one set, in one set without
// prefix sharing, and in a set built from the first half whose second half
// comes by Add.
func machinesGoldenText(t *testing.T) string {
	t.Helper()
	corpus := machinesCorpus()
	var sb strings.Builder
	for _, src := range corpus {
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		fmt.Fprintf(&sb, "== alone %s\n", src)
		fmt.Fprintf(&sb, "machine\n%s\n", q.MachineDescription())
		renderMachines(&sb, q, q.progs)
	}
	set := func(name string, qs *QuerySet) {
		for i, e := range qs.entries {
			fmt.Fprintf(&sb, "== %s %d %s\n", name, i, e.q.Source())
			renderMachines(&sb, e.q, e.progs)
		}
	}
	for _, cfg := range []struct {
		name string
		cfg  SetConfig
	}{{"set", SetConfig{}}, {"unshared", SetConfig{DisablePrefixSharing: true}}} {
		qs, err := NewQuerySetConfigured(cfg.cfg, corpus...)
		if err != nil {
			t.Fatal(err)
		}
		set(cfg.name, qs)
	}
	half := len(corpus) / 2
	added, err := NewQuerySet(corpus[:half]...)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range corpus[half:] {
		if _, err := added.Add(MustCompile(src)); err != nil {
			t.Fatal(err)
		}
	}
	set("added", added)
	return sb.String()
}

// TestMachinesGolden pins what the builder makes of every corpus query, byte
// for byte: the machine trees (Describe), canonical text, size, the symbol IDs
// a program routes on and its shared prefix.
func TestMachinesGolden(t *testing.T) {
	want, err := os.ReadFile(machinesGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := machinesGoldenText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\ngot  %s\nwant %s", machinesGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, the corpus renders %d", machinesGolden, len(wl), len(gl))
}
