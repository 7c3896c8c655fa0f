// Package experiments reproduces every quantitative claim of the ViteX
// paper (see DESIGN.md §3 for the experiment index). Each Run* function
// executes one experiment at a configurable scale and returns a rendered
// table plus the measurements, so cmd/vitexbench can print reports and the
// test suite can assert the *shapes* the paper claims (linear scaling, flat
// memory, exponential naive blowup) at reduced scale.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/sax"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// Config scales the experiments. The paper's scale is ProteinMB=75; tests
// use 2-4MB where the shapes are already visible.
type Config struct {
	// ProteinMB is the protein corpus size for E1-E3 (paper: 75).
	ProteinMB int
	// Seed for all generators.
	Seed int64
	// Dir is where generated corpora are cached between experiments
	// (empty = os.TempDir()).
	Dir string
	// Out receives progress logging (nil = silent).
	Out io.Writer
}

func (c Config) logf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// proteinPath generates (or reuses) the protein corpus file of c.ProteinMB.
func (c Config) proteinPath() (string, int64, error) {
	dir := c.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("vitex-protein-%dMB-seed%d.xml", c.ProteinMB, c.Seed))
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return path, st.Size(), nil
	}
	c.logf("generating %dMB protein corpus at %s...\n", c.ProteinMB, path)
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	n, err := datagen.Protein{TargetBytes: int64(c.ProteinMB) << 20, Seed: c.Seed}.WriteTo(f)
	if err != nil {
		os.Remove(path)
		return "", 0, err
	}
	return path, n, nil
}

// scanOnly measures a pure parse pass (the paper's "SAX parsing" share).
func scanOnly(path string) (time.Duration, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	events := int64(0)
	h := sax.PerEvent(func(*sax.Event) error { events++; return nil })
	t := metrics.StartTimer()
	if err := xmlscan.NewScanner(f).Run(h); err != nil {
		return 0, 0, err
	}
	return t.Elapsed(), events, nil
}

// E1Result carries the protein-query timing of §2 claim 5.
type E1Result struct {
	Bytes      int64
	ParseTime  time.Duration
	QueryTime  time.Duration // full pipeline: parse + TwigM
	Solutions  int64
	ParseShare float64 // ParseTime / QueryTime
	// ParseEvents and QueryEvents count the events each run scanned: the
	// machine rides the one parse, so they are equal.
	ParseEvents int64
	QueryEvents int64
	Table       string
}

// RunE1 reproduces experiment E1: //ProteinEntry[reference]/@id over the
// protein corpus; the paper reports 6.02s total with 4.43s (74%) of it SAX
// parsing. Absolute times differ on our substrate; the claim under test is
// that the query pipeline is parse-dominated (TwigM adds a minor overhead).
func (c Config) RunE1() (E1Result, error) {
	path, size, err := c.proteinPath()
	if err != nil {
		return E1Result{}, err
	}
	parseTime, parseEvents, err := scanOnly(path)
	if err != nil {
		return E1Result{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return E1Result{}, err
	}
	defer f.Close()
	prog := twigm.MustCompile(datagen.PaperProteinQuery)
	run := prog.Start(twigm.Options{})
	t := metrics.StartTimer()
	if err := xmlscan.NewScanner(f).Run(run); err != nil {
		return E1Result{}, err
	}
	queryTime := t.Elapsed()
	res := E1Result{
		Bytes:       size,
		ParseTime:   parseTime,
		QueryTime:   queryTime,
		Solutions:   run.Count(),
		ParseShare:  float64(parseTime) / float64(queryTime),
		ParseEvents: parseEvents,
		QueryEvents: run.Stats().Events,
	}
	tbl := metrics.Table{
		Title:   fmt.Sprintf("E1: %s over %s protein corpus (paper: 6.02s total, 4.43s parse = 74%% on 75MB)", datagen.PaperProteinQuery, metrics.Bytes(uint64(size))),
		Headers: []string{"phase", "time", "throughput", "share"},
	}
	tbl.AddRow("SAX parse only", parseTime.Round(time.Millisecond).String(), metrics.Throughput(size, parseTime), fmt.Sprintf("%.0f%%", res.ParseShare*100))
	tbl.AddRow("parse + TwigM", queryTime.Round(time.Millisecond).String(), metrics.Throughput(size, queryTime), "100%")
	tbl.AddRow("solutions", fmt.Sprint(res.Solutions), "", "")
	res.Table = tbl.String()
	return res, nil
}

// E2Result carries the memory-stability measurements of §2 claim 3.
type E2Result struct {
	SizesMB   []int
	PeakHeap  []uint64 // engine-attributable live heap per size
	PeakStack []int    // machine entries high-water
	Table     string
}

// RunE2 reproduces experiment E2: peak engine memory while scanning protein
// corpora of growing size. The paper reports memory "stable at 1MB" on a
// 75MB input; the claim under test is flatness — peak memory must not grow
// with input size.
func (c Config) RunE2(sizesMB []int) (E2Result, error) {
	res := E2Result{SizesMB: sizesMB}
	prog := twigm.MustCompile(datagen.PaperProteinQuery)
	tbl := metrics.Table{
		Title:   "E2: peak engine memory vs input size (paper: stable at ~1MB)",
		Headers: []string{"input", "peak live heap", "peak machine entries", "solutions"},
	}
	for _, mb := range sizesMB {
		sub := c
		sub.ProteinMB = mb
		path, size, err := sub.proteinPath()
		if err != nil {
			return res, err
		}
		f, err := os.Open(path)
		if err != nil {
			return res, err
		}
		run := prog.Start(twigm.Options{CountOnly: true})
		hs := &metrics.HeapSampler{Every: 50000}
		h := hs.Wrap(run)
		if err := xmlscan.NewScanner(f).Run(h); err != nil {
			f.Close()
			return res, err
		}
		f.Close()
		stats := run.Stats()
		res.PeakHeap = append(res.PeakHeap, hs.Peak)
		res.PeakStack = append(res.PeakStack, stats.PeakStackEntries)
		tbl.AddRow(metrics.Bytes(uint64(size)), metrics.Bytes(hs.Peak), fmt.Sprint(stats.PeakStackEntries), fmt.Sprint(run.Count()))
	}
	res.Table = tbl.String()
	return res, nil
}

// E3Result carries the data-size scaling of §2 claim 1.
type E3Result struct {
	SizesMB []int
	Times   []time.Duration
	Fit     metrics.Fit // time vs bytes; R²≈1 and positive slope = linear
	// Bytes, Events and Pushes are each size's corpus length and the run's
	// Stats counters: the work the timings stand for, exact and repeatable.
	Bytes  []int64
	Events []int64
	Pushes []int64
	Table  string
}

// RunE3 reproduces experiment E3: evaluation time vs data size for a fixed
// query (linear scaling expected).
func (c Config) RunE3(sizesMB []int) (E3Result, error) {
	res := E3Result{SizesMB: sizesMB}
	prog := twigm.MustCompile(datagen.PaperProteinQuery)
	tbl := metrics.Table{
		Title:   "E3: evaluation time vs data size (fixed query; paper claim: polynomial/linear)",
		Headers: []string{"input", "time", "throughput", "events", "pushes"},
	}
	var xs, ys []float64
	for _, mb := range sizesMB {
		sub := c
		sub.ProteinMB = mb
		path, size, err := sub.proteinPath()
		if err != nil {
			return res, err
		}
		// Minimum of three runs per size: scheduler noise inflates
		// individual runs but never deflates them, so the minimum is
		// the cleanest estimator for a scaling fit.
		var el time.Duration
		var stats twigm.Stats
		for rep := 0; rep < 3; rep++ {
			f, err := os.Open(path)
			if err != nil {
				return res, err
			}
			run := prog.Start(twigm.Options{CountOnly: true})
			t := metrics.StartTimer()
			if err := xmlscan.NewScanner(f).Run(run); err != nil {
				f.Close()
				return res, err
			}
			f.Close()
			if d := t.Elapsed(); rep == 0 || d < el {
				el = d
			}
			stats = run.Stats()
		}
		res.Times = append(res.Times, el)
		res.Bytes = append(res.Bytes, size)
		res.Events = append(res.Events, stats.Events)
		res.Pushes = append(res.Pushes, stats.Pushes)
		xs = append(xs, float64(size))
		ys = append(ys, el.Seconds())
		tbl.AddRow(metrics.Bytes(uint64(size)), el.Round(time.Millisecond).String(), metrics.Throughput(size, el),
			fmt.Sprint(stats.Events), fmt.Sprint(stats.Pushes))
	}
	res.Fit = metrics.LinearFit(xs, ys)
	tbl.AddRow("linear fit", fmt.Sprintf("R²=%.4f", res.Fit.R2), fmt.Sprintf("%.1fns/byte", res.Fit.B*1e9), "", "")
	res.Table = tbl.String()
	return res, nil
}

// E4Result carries the query-size scaling of §2 claim 1.
type E4Result struct {
	QuerySizes []int
	Times      []time.Duration
	// Work is each run's Pushes + FlagProps: the machine work the times
	// stand for, exact and repeatable.
	Work  []int64
	Table string
}

// RunE4 reproduces experiment E4: evaluation time vs query size on fixed
// recursive data. Chain queries //sec//sec…//cell grow the pattern-match
// space exponentially; TwigM's time must grow polynomially (roughly
// linearly in |Q| at fixed depth).
func (c Config) RunE4(maxChain int, repeat int) (E4Result, error) {
	res := E4Result{}
	doc := datagen.Book{SectionDepth: 12, TableDepth: 4, Repeat: repeat, AuthorEvery: 1, PositionEvery: 1}.String()
	tbl := metrics.Table{
		Title:   "E4: evaluation time vs query size (recursive sections, depth 12)",
		Headers: []string{"|Q|", "query", "time", "flag propagations", "solutions"},
	}
	for k := 1; k <= maxChain; k++ {
		src := strings.Repeat("//section", k) + "//cell"
		q := xpath.MustParse(src)
		prog, err := twigm.Compile(q)
		if err != nil {
			return res, err
		}
		run := prog.Start(twigm.Options{CountOnly: true})
		t := metrics.StartTimer()
		if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
			return res, err
		}
		el := t.Elapsed()
		res.QuerySizes = append(res.QuerySizes, q.Size())
		res.Times = append(res.Times, el)
		stats := run.Stats()
		res.Work = append(res.Work, stats.Pushes+stats.FlagProps)
		label := src
		if len(label) > 30 {
			label = label[:27] + "..."
		}
		tbl.AddRow(fmt.Sprint(q.Size()), label, el.Round(time.Microsecond).String(), fmt.Sprint(stats.FlagProps), fmt.Sprint(run.Count()))
	}
	res.Table = tbl.String()
	return res, nil
}

// E5Result contrasts TwigM with the naive enumeration baseline (§1).
type E5Result struct {
	Depths      []int
	NaivePeak   []int // peak stored pattern matches (naive)
	NaiveTimes  []time.Duration
	TwigMPeak   []int // peak stack entries (TwigM)
	TwigMTimes  []time.Duration
	NaiveFailed []bool // hit the match limit
	Table       string
}

// RunE5 reproduces experiment E5 (the paper's figure-1 motivation at
// scale): recursive chains of depth d against //a//a//a//b. The naive
// engine's stored matches grow as C(d,3); TwigM's state stays linear in d.
func (c Config) RunE5(depths []int, maxMatches int) (E5Result, error) {
	res := E5Result{Depths: depths}
	const chainK = 3
	src := datagen.ChainQuery(chainK)
	q := xpath.MustParse(src)
	tbl := metrics.Table{
		Title:   fmt.Sprintf("E5: naive match enumeration vs TwigM compact encoding (query %s)", src),
		Headers: []string{"depth", "naive matches", "naive time", "twigm entries", "twigm time", "speedup"},
	}
	prog, err := twigm.Compile(q)
	if err != nil {
		return res, err
	}
	eng, err := naive.Compile(q)
	if err != nil {
		return res, err
	}
	for _, d := range depths {
		doc := datagen.RecursiveChain(d)
		// Naive.
		nrun := eng.Start(naive.Options{MaxMatches: maxMatches})
		nt := metrics.StartTimer()
		nerr := xmlscan.NewScanner(strings.NewReader(doc)).Run(nrun)
		nel := nt.Elapsed()
		nstats := nrun.Stats()
		failed := nerr != nil
		// TwigM.
		trun := prog.Start(twigm.Options{CountOnly: true})
		tt := metrics.StartTimer()
		if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(trun); err != nil {
			return res, err
		}
		tel := tt.Elapsed()
		tstats := trun.Stats()

		res.NaivePeak = append(res.NaivePeak, nstats.PeakMatches)
		res.NaiveTimes = append(res.NaiveTimes, nel)
		res.TwigMPeak = append(res.TwigMPeak, tstats.PeakStackEntries)
		res.TwigMTimes = append(res.TwigMTimes, tel)
		res.NaiveFailed = append(res.NaiveFailed, failed)

		naiveCell := fmt.Sprint(nstats.PeakMatches)
		timeCell := nel.Round(time.Microsecond).String()
		if failed {
			naiveCell = fmt.Sprintf(">%d (limit)", maxMatches)
			timeCell = "aborted"
		}
		speed := "-"
		if !failed && tel > 0 {
			speed = fmt.Sprintf("%.0fx", float64(nel)/float64(tel))
		}
		tbl.AddRow(fmt.Sprint(d), naiveCell, timeCell, fmt.Sprint(tstats.PeakStackEntries), tel.Round(time.Microsecond).String(), speed)
	}
	res.Table = tbl.String()
	return res, nil
}

// E5bResult sweeps the query size instead of the data depth: the dimension
// in which the paper states the exponential ("exponential in the query
// size").
type E5bResult struct {
	ChainLens  []int
	NaivePeak  []int
	TwigMPeak  []int
	NaiveTimes []time.Duration
	TwigMTimes []time.Duration
	Table      string
}

// RunE5b fixes the recursion depth and grows the chain query //a//a…//b.
// Naive storage tracks C(depth, k) — exponential in |Q| until k reaches
// depth/2 — while TwigM state grows linearly in |Q|.
func (c Config) RunE5b(depth int, maxChain int, maxMatches int) (E5bResult, error) {
	res := E5bResult{}
	doc := datagen.RecursiveChain(depth)
	tbl := metrics.Table{
		Title:   fmt.Sprintf("E5b: growth in query size at fixed depth %d (paper: matches exponential in |Q|)", depth),
		Headers: []string{"chain k", "|Q|", "naive matches", "naive time", "twigm entries", "twigm time"},
	}
	for k := 1; k <= maxChain; k++ {
		src := datagen.ChainQuery(k)
		q := xpath.MustParse(src)
		prog, err := twigm.Compile(q)
		if err != nil {
			return res, err
		}
		eng, err := naive.Compile(q)
		if err != nil {
			return res, err
		}
		nrun := eng.Start(naive.Options{MaxMatches: maxMatches})
		nt := metrics.StartTimer()
		nerr := xmlscan.NewScanner(strings.NewReader(doc)).Run(nrun)
		nel := nt.Elapsed()
		nstats := nrun.Stats()

		trun := prog.Start(twigm.Options{CountOnly: true})
		tt := metrics.StartTimer()
		if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(trun); err != nil {
			return res, err
		}
		tel := tt.Elapsed()
		tstats := trun.Stats()

		res.ChainLens = append(res.ChainLens, k)
		res.NaivePeak = append(res.NaivePeak, nstats.PeakMatches)
		res.TwigMPeak = append(res.TwigMPeak, tstats.PeakStackEntries)
		res.NaiveTimes = append(res.NaiveTimes, nel)
		res.TwigMTimes = append(res.TwigMTimes, tel)

		naiveCell := fmt.Sprint(nstats.PeakMatches)
		timeCell := nel.Round(time.Microsecond).String()
		if nerr != nil {
			naiveCell = fmt.Sprintf(">%d (limit)", maxMatches)
			timeCell = "aborted"
		}
		tbl.AddRow(fmt.Sprint(k), fmt.Sprint(q.Size()), naiveCell, timeCell,
			fmt.Sprint(tstats.PeakStackEntries), tel.Round(time.Microsecond).String())
	}
	res.Table = tbl.String()
	return res, nil
}

// E6Result is the paper's worked example (figures 1 and 3).
type E6Result struct {
	Machine   string
	Solutions []string
	Table     string
}

// RunE6 replays the paper's worked example: the figure-1 document against
// //section[author]//table[position]//cell must yield exactly cell₈.
func (c Config) RunE6() (E6Result, error) {
	prog := twigm.MustCompile(datagen.PaperQuery)
	results, stats, err := twigm.Collect(prog, xmlscan.NewScanner(strings.NewReader(datagen.PaperFigure1)), twigm.Options{Ordered: true})
	if err != nil {
		return E6Result{}, err
	}
	res := E6Result{Machine: prog.Describe(), Solutions: twigm.Values(results)}
	tbl := metrics.Table{
		Title:   "E6: paper worked example (figure 1 document, figure 3 machine)",
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("query", datagen.PaperQuery)
	tbl.AddRow("solutions", strings.Join(res.Solutions, " "))
	tbl.AddRow("candidates created", fmt.Sprint(stats.CandidatesCreated))
	tbl.AddRow("candidates dropped", fmt.Sprint(stats.CandidatesDropped))
	tbl.AddRow("stack pushes", fmt.Sprint(stats.Pushes))
	res.Table = tbl.String()
	return res, nil
}

// E7Result verifies linear TwigM build time (§2 claim 2).
type E7Result struct {
	QuerySizes []int
	BuildTimes []time.Duration
	Fit        metrics.Fit
	Table      string
}

// RunE7 reproduces experiment E7: machine build time vs query size. Each
// build is repeated reps times and averaged.
func (c Config) RunE7(sizes []int, reps int) (E7Result, error) {
	res := E7Result{}
	tbl := metrics.Table{
		Title:   "E7: TwigM build time vs query size (paper claim 2: linear)",
		Headers: []string{"|Q|", "avg build time"},
	}
	var xs, ys []float64
	for _, size := range sizes {
		q, err := xpath.Parse(e7Query(size))
		if err != nil {
			return res, err
		}
		t := metrics.StartTimer()
		for i := 0; i < reps; i++ {
			if _, err := twigm.Compile(q); err != nil {
				return res, err
			}
		}
		avg := t.Elapsed() / time.Duration(reps)
		res.QuerySizes = append(res.QuerySizes, q.Size())
		res.BuildTimes = append(res.BuildTimes, avg)
		xs = append(xs, float64(q.Size()))
		ys = append(ys, avg.Seconds())
		tbl.AddRow(fmt.Sprint(q.Size()), avg.String())
	}
	res.Fit = metrics.LinearFit(xs, ys)
	tbl.AddRow("linear fit", fmt.Sprintf("R²=%.4f", res.Fit.R2))
	res.Table = tbl.String()
	return res, nil
}

// e7Query is E7's query of about size nodes: a descendant chain of steps, each
// with a one-step predicate.
func e7Query(size int) string {
	var b strings.Builder
	b.WriteString("//root")
	for i := 1; i < size; i += 2 {
		fmt.Fprintf(&b, "//s%d[p%d]", i, i)
	}
	return b.String()
}

// E9Result measures the multi-query extension: N standing queries over one
// shared scan versus N separate passes (the subscription deployment of the
// paper's motivating applications).
type E9Result struct {
	Queries    int
	SharedTime time.Duration
	SeparateT  time.Duration
	Speedup    float64
	// SharedEvents and SeparateEvents count the events scanned each way
	// (Stats.Events): one scan of the document against one per query.
	SharedEvents   int64
	SeparateEvents int64
	Table          string
}

// RunE9 evaluates a bundle of ticker subscriptions both ways. This
// experiment is an extension of this reproduction (the paper evaluates a
// single query); it quantifies what the shared-scan architecture buys.
func (c Config) RunE9(trades int) (E9Result, error) {
	doc := datagen.Ticker{Trades: trades, Seed: c.Seed}.String()
	sources := []string{
		"//trade[symbol='ACME']/price",
		"//trade[symbol='GLOBEX']/price",
		"//trade[symbol='STARK']/volume",
		"//trade[price>150]/@seq",
		"//trade[volume>4000]/symbol",
		"//trade/@seq",
	}
	queries := make([]*xpath.Query, len(sources))
	for i, src := range sources {
		queries[i] = xpath.MustParse(src)
	}
	// Shared: one scan, every event routed to the machines it concerns.
	eng, err := engine.New(queries...)
	if err != nil {
		return E9Result{}, err
	}
	shared := metrics.StartTimer()
	plan := engine.Plan{Options: twigm.Options{CountOnly: true}}
	sharedStats, err := eng.Stream(context.Background(), strings.NewReader(doc), plan)
	if err != nil {
		return E9Result{}, err
	}
	sharedTime := shared.Elapsed()
	// Separate: one full pass per query.
	var sepEvents int64
	sep := metrics.StartTimer()
	for _, src := range sources {
		run := twigm.MustCompile(src).Start(twigm.Options{CountOnly: true})
		if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(run); err != nil {
			return E9Result{}, err
		}
		sepEvents += run.Stats().Events
	}
	sepTime := sep.Elapsed()
	res := E9Result{
		Queries:        len(sources),
		SharedTime:     sharedTime,
		SeparateT:      sepTime,
		Speedup:        float64(sepTime) / float64(sharedTime),
		SharedEvents:   sharedStats.Events,
		SeparateEvents: sepEvents,
	}
	tbl := metrics.Table{
		Title:   fmt.Sprintf("E9 (extension): %d standing queries over one ticker stream (%d trades)", len(sources), trades),
		Headers: []string{"strategy", "time", "speedup", "events scanned"},
	}
	tbl.AddRow("shared single scan", sharedTime.Round(time.Millisecond).String(), fmt.Sprintf("%.2fx", res.Speedup), fmt.Sprint(sharedStats.Events))
	tbl.AddRow("one pass per query", sepTime.Round(time.Millisecond).String(), "1.00x", fmt.Sprint(sepEvents))
	res.Table = tbl.String()
	return res, nil
}

// E8Result measures incremental delivery (§1 requirement 2).
type E8Result struct {
	Trades        int
	Solutions     int
	MeanLagEvents float64 // events between a solution's confirmation and its result node's last event
	FirstAtFrac   float64 // stream fraction at which the first result arrived
	Table         string
}

// RunE8 reproduces experiment E8: a stock-ticker stream with a selective
// query; solutions must flow long before end of stream.
func (c Config) RunE8(trades int) (E8Result, error) {
	doc := datagen.Ticker{Trades: trades, Seed: c.Seed}.String()
	prog := twigm.MustCompile("//trade[symbol='ACME']/price")
	results, stats, err := twigm.Collect(prog, xmlscan.NewScanner(strings.NewReader(doc)), twigm.Options{})
	if err != nil {
		return E8Result{}, err
	}
	res := E8Result{Trades: trades, Solutions: len(results)}
	if len(results) > 0 {
		res.FirstAtFrac = float64(results[0].DeliveredAt) / float64(stats.Events)
		var lag float64
		for _, r := range results {
			lag += float64(r.DeliveredAt - r.ConfirmedAt)
		}
		res.MeanLagEvents = lag / float64(len(results))
	}
	tbl := metrics.Table{
		Title:   "E8: incremental result delivery on a ticker stream (§1 requirement 2)",
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("trades", fmt.Sprint(trades))
	tbl.AddRow("solutions", fmt.Sprint(res.Solutions))
	tbl.AddRow("first result at", fmt.Sprintf("%.1f%% of stream", res.FirstAtFrac*100))
	tbl.AddRow("mean confirm→deliver lag", fmt.Sprintf("%.1f events", res.MeanLagEvents))
	res.Table = tbl.String()
	return res, nil
}
