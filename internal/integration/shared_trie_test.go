package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"

	vitex "repro"
)

// overlapQueryMix is a prefix-heavy subscription family over the Portal and
// equivalence corpora: deep shared structural prefixes with per-query
// leaves — the shapes the shared trie factors — plus queries that cannot
// share (predicate on the first step, single-step, wildcard prefixes).
var overlapQueryMix = []string{
	"//channel//article/head/f1[. = 'v1']",
	"//channel//article/head/f2",
	"/portal/channel//article/head/f1",
	"//channel/article/head/f3[. = 'v0']",
	"//channel//article/body/sec/p",
	"//channel//article/body//p[. = 't7']",
	"//channel//article/@id",
	"//channel//article/head/*",
	"//article/head/f1/text()",
	"//section//table//cell",
	"//section//table/position",
	"//section/author",
	"//a//a/b",
	"//a/b[c]/d",
	"//trade[symbol='ACME']/price", // unshareable: predicate on step 1
	"//trade/price",
	"//trade/symbol/text()",
	"//nosuchprefix//nosuchleaf",
}

// streamInterleaved collects the full emission sequence a QuerySet delivers
// — query indexes included — so comparisons pin cross-query emission order,
// not just per-query results.
func streamInterleaved(t *testing.T, qs *vitex.QuerySet, doc string, opts vitex.Options) []vitex.SetResult {
	t.Helper()
	var out []vitex.SetResult
	if _, err := qs.Stream(strings.NewReader(doc), opts, func(sr vitex.SetResult) error {
		out = append(out, sr)
		return nil
	}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return out
}

// TestSharedTrieEquivalence pins the tentpole guarantee at the system
// level: prefix-shared evaluation (the default) is byte-identical — Value,
// Seq, NodeOffset, ConfirmedAt, DeliveredAt and the interleaved emission
// order across queries — to an engine with sharing disabled, for every
// corpus × Ordered × CountOnly combination.
func TestSharedTrieEquivalence(t *testing.T) {
	corpora := equivalenceCorpora()
	corpora = append(corpora, struct{ name, doc string }{
		"portal", datagen.Portal{Articles: 40, Seed: 5}.String(),
	})
	shared, err := vitex.NewQuerySet(overlapQueryMix...)
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := vitex.NewQuerySetConfigured(vitex.SetConfig{DisablePrefixSharing: true}, overlapQueryMix...)
	if err != nil {
		t.Fatal(err)
	}
	m := shared.Metrics()
	if m.TrieNodes == 0 || m.AnchoredMachines == 0 {
		t.Fatalf("sharing not engaged: %+v", m)
	}
	if um := unshared.Metrics(); um.TrieNodes != 0 || um.AnchoredMachines != 0 {
		t.Fatalf("disabled sharing engaged anyway: %+v", um)
	}
	for _, corpus := range corpora {
		for _, ordered := range []bool{false, true} {
			for _, countOnly := range []bool{false, true} {
				opts := vitex.Options{Ordered: ordered, CountOnly: countOnly}
				name := fmt.Sprintf("%s/ordered=%v/count=%v", corpus.name, ordered, countOnly)
				got := streamInterleaved(t, shared, corpus.doc, opts)
				want := streamInterleaved(t, unshared, corpus.doc, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: shared-trie evaluation diverges\nshared   %+v\nunshared %+v",
						name, got, want)
				}
			}
		}
	}
}

// TestSharedTrieRandomizedDifferential extends the randomized campaign with
// the sharing dimension: random query sets (QueryGen grammar, plus forced
// prefix-overlapping families) over random documents, evaluated with
// sharing on and off, must agree on the full interleaved emission sequence.
// Mutations (Add/Remove/Replace applied identically to both sets) keep the
// trie grafting/pruning honest mid-campaign.
func TestSharedTrieRandomizedDifferential(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(77))
	gen := datagen.DefaultQueryGen
	for round := 0; round < rounds; round++ {
		// A mix of grammar-random queries and an explicit overlapping
		// family on the same alphabet (deep predicate-free prefixes are
		// rare in pure grammar output).
		var sources []string
		for i := 0; i < 4+rng.Intn(4); i++ {
			sources = append(sources, gen.Generate(rng))
		}
		for i := 0; i < 3+rng.Intn(3); i++ {
			leaf := []string{"c", "d", "@id", "text()", "c[. = '1']"}[rng.Intn(5)]
			sources = append(sources, fmt.Sprintf("//a/%s/%s", []string{"b", "a"}[rng.Intn(2)], leaf))
		}
		shared, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		unshared, err := vitex.NewQuerySetConfigured(vitex.SetConfig{DisablePrefixSharing: true}, sources...)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		doc := datagen.ChurnRandomTree.Generate(rand.New(rand.NewSource(int64(round) * 131)))
		opts := vitex.Options{Ordered: rng.Intn(2) == 0, CountOnly: rng.Intn(4) == 0}
		got := streamInterleaved(t, shared, doc, opts)
		want := streamInterleaved(t, unshared, doc, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%v, queries %q, doc %q): shared vs unshared diverge\nshared   %+v\nunshared %+v",
				round, opts, sources, doc, got, want)
		}
		// Churn both sets identically, stream again: grafting and pruning
		// under mutation must stay equivalent.
		for m := 0; m < 3; m++ {
			switch rng.Intn(3) {
			case 0:
				q := vitex.MustCompile(gen.Generate(rng))
				if _, err := shared.Add(q); err != nil {
					t.Fatal(err)
				}
				if _, err := unshared.Add(q); err != nil {
					t.Fatal(err)
				}
			case 1:
				if shared.Len() == 0 {
					continue
				}
				i := rng.Intn(shared.Len())
				if err := shared.Remove(i); err != nil {
					t.Fatal(err)
				}
				if err := unshared.Remove(i); err != nil {
					t.Fatal(err)
				}
			default:
				if shared.Len() == 0 {
					continue
				}
				i := rng.Intn(shared.Len())
				q := vitex.MustCompile(fmt.Sprintf("//a//b/%s", []string{"c", "d"}[rng.Intn(2)]))
				if err := shared.Replace(i, q); err != nil {
					t.Fatal(err)
				}
				if err := unshared.Replace(i, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		got = streamInterleaved(t, shared, doc, opts)
		want = streamInterleaved(t, unshared, doc, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d after churn: shared vs unshared diverge\nshared   %+v\nunshared %+v",
				round, got, want)
		}
	}
}

// TestSharedTrieChurnCompaction drives enough shared-prefix churn to
// trigger trie compaction (dead node IDs outnumbering live nodes past the
// threshold) and pins that (a) the compaction actually ran, (b) no machine
// was recompiled by it, and (c) evaluation after re-anchoring is identical
// to a freshly built set.
func TestSharedTrieChurnCompaction(t *testing.T) {
	doc := datagen.Portal{Articles: 25, Seed: 9}.String()
	qs, err := vitex.NewQuerySet()
	if err != nil {
		t.Fatal(err)
	}
	// Grow 40 queries over distinct deep prefixes, then remove the first
	// 30: each removal kills a whole private branch (3 nodes), so garbage
	// quickly exceeds both the threshold and the live count.
	var kept []string
	for i := 0; i < 40; i++ {
		src := fmt.Sprintf("//channel//extra%d/deep%d/leaf%d", i, i, i)
		if i >= 30 {
			src = fmt.Sprintf("//channel//article/head/f%d", i-30)
			kept = append(kept, src)
		}
		if _, err := qs.Add(vitex.MustCompile(src)); err != nil {
			t.Fatal(err)
		}
	}
	compiles0 := qs.Metrics().Compiles
	for i := 0; i < 30; i++ {
		if err := qs.Remove(0); err != nil {
			t.Fatal(err)
		}
	}
	m := qs.Metrics()
	if m.TrieCompactions == 0 {
		t.Fatalf("expected a trie compaction, metrics %+v", m)
	}
	if m.Compiles != compiles0 {
		t.Fatalf("trie compaction recompiled %d machines", m.Compiles-compiles0)
	}
	// The kept queries share one //channel//article/head chain; everything
	// else was pruned, and post-compaction garbage stays under the
	// re-compaction threshold.
	if m.TrieNodes != 3 {
		t.Fatalf("expected 3 live trie nodes for the kept prefix family, metrics %+v", m)
	}
	if m.TrieGarbage >= 16 && m.TrieGarbage > m.TrieNodes {
		t.Fatalf("garbage above the compaction threshold was left behind: %+v", m)
	}
	fresh, err := vitex.NewQuerySet(kept...)
	if err != nil {
		t.Fatal(err)
	}
	got := streamInterleaved(t, qs, doc, vitex.Options{})
	want := streamInterleaved(t, fresh, doc, vitex.Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("churned+compacted set diverges from fresh\nchurned %+v\nfresh   %+v", got, want)
	}
}
