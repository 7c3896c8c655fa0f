// Benchmarks timing the ViteX paper's quantitative claims, BenchmarkE1… to
// BenchmarkE8… (run `go test -bench=. -benchmem`), plus BenchmarkAblation…,
// which time TwigM's design choices against their alternatives. They give the
// ns/op and B/op view over benchmark-sized corpora; the claims themselves are
// checked on exact counts in paper_test.go, and the repository's end-to-end
// benchmark is the bench/ module.
package vitex

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// broadcast is the pre-engine fan-out the routed-dispatch benchmarks compare
// against: every batch of the one scan goes to every machine.
type broadcast []*twigm.Run

func (b broadcast) HandleBatch(evs []sax.Event) error {
	for _, r := range b {
		if err := r.HandleBatch(evs); err != nil {
			return err
		}
	}
	return nil
}

// proteinDoc caches a 4MiB protein corpus across benchmarks.
var proteinDoc = func() string {
	return datagen.Protein{TargetBytes: 4 << 20, Seed: 1}.String()
}()

// BenchmarkE1ParseOnly measures the SAX-parsing share of E1 (the paper's
// 4.43s of 6.02s): a pure scan with a no-op handler.
func BenchmarkE1ParseOnly(b *testing.B) {
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	b.SetBytes(int64(len(proteinDoc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := xmlscan.NewScanner(strings.NewReader(proteinDoc)).Run(nop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1ProteinQuery measures the full E1 pipeline:
// //ProteinEntry[reference]/@id through parse + TwigM.
func BenchmarkE1ProteinQuery(b *testing.B) {
	prog := twigm.MustCompile(datagen.PaperProteinQuery)
	b.SetBytes(int64(len(proteinDoc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := prog.Start(twigm.Options{})
		if err := xmlscan.NewScanner(strings.NewReader(proteinDoc)).Run(run); err != nil {
			b.Fatal(err)
		}
		if run.Count() == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkE2Memory is E2's allocation view: B/op must stay flat across
// input sizes (compare the E2Memory/1MB and /4MB lines), the benchmark form
// of "memory stable at 1MB".
func BenchmarkE2Memory(b *testing.B) {
	prog := twigm.MustCompile(datagen.PaperProteinQuery)
	for _, mb := range []int{1, 2, 4} {
		doc := datagen.Protein{TargetBytes: int64(mb) << 20, Seed: 1}.String()
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: true})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
				peak := run.Stats().PeakStackEntries
				if peak > 4 {
					b.Fatalf("peak entries %d on shallow data", peak)
				}
			}
		})
	}
}

// BenchmarkE3DataScaling sweeps input size at fixed query: ns/op must scale
// linearly with bytes (throughput column constant).
func BenchmarkE3DataScaling(b *testing.B) {
	prog := twigm.MustCompile(datagen.PaperProteinQuery)
	for _, kb := range []int{256, 512, 1024, 2048} {
		doc := datagen.Protein{TargetBytes: int64(kb) << 10, Seed: 1}.String()
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: true})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4QueryScaling sweeps query size over fixed recursive data:
// polynomial (near-linear) growth expected, versus the exponential
// pattern-match space.
func BenchmarkE4QueryScaling(b *testing.B) {
	doc := datagen.Book{SectionDepth: 12, TableDepth: 4, Repeat: 50, AuthorEvery: 1, PositionEvery: 1}.String()
	for _, k := range []int{1, 2, 4, 8} {
		src := strings.Repeat("//section", k) + "//cell"
		prog := twigm.MustCompile(src)
		b.Run(fmt.Sprintf("chain%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: true})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5NaiveVsTwigM is the central contrast of the paper's
// motivation: explicit match enumeration vs compact encoding on recursive
// chains. Compare naive/depth16 with twigm/depth16.
func BenchmarkE5NaiveVsTwigM(b *testing.B) {
	src := datagen.ChainQuery(3)
	q := xpath.MustParse(src)
	prog, err := twigm.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := naive.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{8, 12, 16} {
		doc := datagen.RecursiveChain(depth)
		b.Run(fmt.Sprintf("naive/depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := eng.Start(naive.Options{})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("twigm/depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: true})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6PaperExample runs the figure-1 worked example end to end
// (parse + machine + serialization).
func BenchmarkE6PaperExample(b *testing.B) {
	prog := twigm.MustCompile(datagen.PaperQuery)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, _, err := twigm.Collect(prog, xmlscan.NewScanner(strings.NewReader(datagen.PaperFigure1)), twigm.Options{})
		if err != nil || len(results) != 1 {
			b.Fatalf("results=%v err=%v", results, err)
		}
	}
}

// BenchmarkE7BuildLinear measures TwigM construction cost per query size
// (claim 2: linear build).
func BenchmarkE7BuildLinear(b *testing.B) {
	for _, size := range []int{4, 16, 64} {
		var sb strings.Builder
		sb.WriteString("//n0")
		for i := 1; i < size; i++ {
			fmt.Fprintf(&sb, "//n%d", i)
		}
		q := xpath.MustParse(sb.String())
		b.Run(fmt.Sprintf("size%d", q.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := twigm.Compile(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Latency measures the ticker workload end to end, the substrate
// of the incremental-delivery experiment.
func BenchmarkE8Latency(b *testing.B) {
	doc := datagen.Ticker{Trades: 5000, Seed: 1}.String()
	prog := twigm.MustCompile("//trade[symbol='ACME']/price")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := prog.Start(twigm.Options{})
		if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations: TwigM's design choices against their alternatives ---

// BenchmarkAblationEager compares eager satisfaction propagation (default;
// enables incremental output) against pop-time-only propagation.
func BenchmarkAblationEager(b *testing.B) {
	doc := datagen.Book{SectionDepth: 8, TableDepth: 4, Repeat: 100, AuthorEvery: 2, PositionEvery: 2}.String()
	prog := twigm.MustCompile(datagen.PaperQuery)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"eager", false}, {"popTime", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: true, DisableEagerPropagation: mode.disable})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPrune compares push-time pruning of dead entries
// (attribute predicates known at push) against always-push.
func BenchmarkAblationPrune(b *testing.B) {
	// A corpus where most entries fail the attribute predicate.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, `<item kind="k%d"><sub><val>%d</val></sub></item>`, i%10, i)
	}
	sb.WriteString("</r>")
	doc := sb.String()
	prog := twigm.MustCompile(`//item[@kind='k3']//val`)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"prune", false}, {"noPrune", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: true, DisablePrune: mode.disable})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScannerVsEncodingXML compares the scanner with saxtest's
// encoding/xml reference front-end, the parser the scanner is held to.
func BenchmarkScannerVsEncodingXML(b *testing.B) {
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	b.Run("xmlscan", func(b *testing.B) {
		b.SetBytes(int64(len(proteinDoc)))
		for i := 0; i < b.N; i++ {
			if err := xmlscan.NewScanner(strings.NewReader(proteinDoc)).Run(nop); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encodingxml", func(b *testing.B) {
		b.SetBytes(int64(len(proteinDoc)))
		for i := 0; i < b.N; i++ {
			if err := saxtest.NewStdDriver(strings.NewReader(proteinDoc)).Run(nop); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuerySetSharedScan measures the multi-query extension: N queries
// over one scan versus N separate scans.
func BenchmarkQuerySetSharedScan(b *testing.B) {
	doc := datagen.Ticker{Trades: 2000, Seed: 1}.String()
	sources := []string{
		"//trade[symbol='ACME']/price",
		"//trade[symbol='GLOBEX']/price",
		"//trade[price>150]/@seq",
		"//trade/volume",
	}
	b.Run("shared", func(b *testing.B) {
		qs, err := NewQuerySet(sources...)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := qs.Counts(strings.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		queries := make([]*Query, len(sources))
		for i, src := range sources {
			queries[i] = MustCompile(src)
		}
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := q.Count(strings.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkQuerySetSparse contrasts the engine's routed dispatch against the
// seed's broadcast fan-out on 100 standing queries of which ~90 match
// nothing in the document. The broadcast arm reproduces the pre-engine
// QuerySet path exactly: one machine per query, every event delivered to
// every machine (broadcast), a fresh non-interning scanner per document.
func BenchmarkQuerySetSparse(b *testing.B) {
	doc := datagen.Ticker{Trades: 2000, Seed: 1}.String()
	sources := datagen.SparseTickerQueries(10, 90)
	b.Run("routed", func(b *testing.B) {
		qs, err := NewQuerySet(sources...)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := qs.Counts(strings.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("broadcast", func(b *testing.B) {
		progs := make([]*twigm.Program, len(sources))
		for i, src := range sources {
			progs[i] = twigm.MustCompile(src)
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			handlers := make(broadcast, len(progs))
			for j, p := range progs {
				handlers[j] = p.Start(twigm.Options{CountOnly: true})
			}
			if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(handlers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuerySetChurn measures subscription churn on a live 100-query
// standing set: the incremental arm mutates the set in place (Add one
// pre-compiled query, then Remove it — two epoch publications, one machine
// compilation), while the recompile arm reproduces the pre-epoch behaviour
// of a mutation: rebuild the whole shared engine from the 101 parsed
// queries. The incremental path must be at least 10x cheaper at this size
// (it is typically two orders of magnitude; TestChurnCheaperThanRecompile
// asserts the floor). The portal10k arm is the benchmark workload's churn at
// its scale, followed by the document that resyncs to it; that document's
// returned []Stats is most of its bytes (TestChurnCostIsFlat pins the churn's
// own).
func BenchmarkQuerySetChurn(b *testing.B) {
	sources := datagen.SparseTickerQueries(10, 90)
	extra := MustCompile("//trade[symbol='CHURNX']/price")
	b.Run("incrementalAdd", func(b *testing.B) {
		qs, err := NewQuerySet(sources...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx, err := qs.Add(extra)
			if err != nil {
				b.Fatal(err)
			}
			if err := qs.Remove(idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("portal10k", func(b *testing.B) {
		// The benchmark workload's churn: one value-group member in and out
		// of 10,000 standing portal queries, and the next document's resync.
		qs, err := NewQuerySet(datagen.OverlapQueries(10000, 0.9, 0, 0, 1)...)
		if err != nil {
			b.Fatal(err)
		}
		doc := datagen.Portal{Articles: 20, Seed: 1}.String()
		churn := MustCompile("//channel//article/head/f7[. = 'no-such-value']")
		rd := strings.NewReader(doc)
		stream := func() {
			rd.Reset(doc)
			if _, err := qs.Stream(rd, Options{}, func(SetResult) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
		stream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx, err := qs.Add(churn)
			if err != nil {
				b.Fatal(err)
			}
			if err := qs.Remove(idx); err != nil {
				b.Fatal(err)
			}
			stream()
		}
	})
	b.Run("fullRecompile", func(b *testing.B) {
		parsed := make([]*xpath.Query, 0, len(sources)+1)
		for _, src := range append(append([]string(nil), sources...), extra.Source()) {
			qs, err := xpath.ParseUnion(src)
			if err != nil {
				b.Fatal(err)
			}
			parsed = append(parsed, qs...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.New(parsed...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuerySetRepeatedStream measures steady-state allocation of a
// long-lived QuerySet serving a stream of documents (the subscription
// scenario). The reused arm exercises the engine's pooled sessions — reset
// machines, warm stacks, reusable scanner; the perDocument arm rebuilds
// evaluation state for every document the way the seed did.
func BenchmarkQuerySetRepeatedStream(b *testing.B) {
	doc := datagen.Ticker{Trades: 500, Seed: 1}.String()
	sources := []string{
		"//trade[symbol='ACME']/price",
		"//trade[symbol='GLOBEX']/price",
		"//trade[price>150]/@seq",
		"//trade/volume",
		"//trade/price | //trade/volume",
	}
	b.Run("reused", func(b *testing.B) {
		qs, err := NewQuerySet(sources...)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the session pool so the steady state is measured.
		if _, err := qs.Counts(strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qs.Counts(strings.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perDocument", func(b *testing.B) {
		queries := make([][]*twigm.Program, len(sources))
		for i, src := range sources {
			branches, err := xpath.ParseUnion(src)
			if err != nil {
				b.Fatal(err)
			}
			for _, branch := range branches {
				prog, err := twigm.Compile(branch)
				if err != nil {
					b.Fatal(err)
				}
				queries[i] = append(queries[i], prog)
			}
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var handlers broadcast
			for _, progs := range queries {
				for _, p := range progs {
					handlers = append(handlers, p.Start(twigm.Options{CountOnly: true}))
				}
			}
			if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(handlers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQuerySetStats measures what per-query statistics cost a portal
// document against 1,000 and 10,000 standing queries: Stream returns one row
// per query, Evaluate returns the scan's counters and allocates nothing per
// query.
func BenchmarkQuerySetStats(b *testing.B) {
	doc := datagen.Portal{Articles: 20, Seed: 1}.String()
	discard := func(SetResult) error { return nil }
	for _, n := range []int{1000, 10000} {
		qs, err := NewQuerySet(datagen.OverlapQueries(n, 0.9, 0, 0, 1)...)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			eval func(r io.Reader) error
		}{
			{"Stream", func(r io.Reader) error {
				_, err := qs.Stream(r, Options{}, discard)
				return err
			}},
			{"Evaluate", func(r io.Reader) error {
				_, err := qs.Evaluate(r, Options{}, discard)
				return err
			}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, arm.name), func(b *testing.B) {
				rd := strings.NewReader(doc)
				if err := arm.eval(rd); err != nil { // warm the pooled session
					b.Fatal(err)
				}
				b.SetBytes(int64(len(doc)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rd.Reset(doc)
					if err := arm.eval(rd); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStandingSetGC measures what a standing set costs each garbage
// collection: ns/op is one forced collection with 10,000 portal queries alive
// and nothing else of note on the heap, and objects/query the live heap
// objects the set holds per query, which that collection marks.
func BenchmarkStandingSetGC(b *testing.B) {
	sources := datagen.OverlapQueries(10000, 0.9, 0, 0, 1)
	objects, _ := standingCost(sources, 1)
	qs, err := NewQuerySet(sources...)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(qs)
	b.ReportMetric(objects, "objects/query")
}

// BenchmarkDOMBaseline measures the non-streaming baseline (build the whole
// tree, then evaluate) for the motivation's contrast: correct but
// memory-proportional-to-document.
func BenchmarkDOMBaseline(b *testing.B) {
	q := xpath.MustParse(datagen.PaperProteinQuery)
	b.SetBytes(int64(len(proteinDoc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := dom.Build(xmlscan.NewScanner(strings.NewReader(proteinDoc)))
		if err != nil {
			b.Fatal(err)
		}
		if n := len(dom.Eval(d, q)); n == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkXPathParse measures query compilation front-to-back.
func BenchmarkXPathParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Parse(datagen.PaperQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragmentSerialization measures result recording (element
// fragments vs count-only).
func BenchmarkFragmentSerialization(b *testing.B) {
	doc := datagen.Book{SectionDepth: 4, TableDepth: 4, Repeat: 200, AuthorEvery: 1, PositionEvery: 1}.String()
	prog := twigm.MustCompile("//table[position]")
	for _, mode := range []struct {
		name      string
		countOnly bool
	}{{"serialize", false}, {"countOnly", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := prog.Start(twigm.Options{CountOnly: mode.countOnly})
				if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
