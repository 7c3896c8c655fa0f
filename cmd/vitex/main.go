// Command vitex runs an XPath query over an XML file or stdin, streaming
// results as they are proven — the demo binary of the ViteX system.
//
// Usage:
//
//	vitex -q QUERY [flags] [file.xml]
//
// With no file, the document is read from stdin, so it composes with any
// stream source:
//
//	generate-feed | vitex -q "//trade[symbol='ACME']/price"
//
// Flags:
//
//	-q string   the XPath query (required)
//	-engine     twigm (default) | naive | dom — engine selection; naive and
//	            dom are the paper's baselines
//	-count      print only the number of solutions
//	-ordered    deliver results in document order (twigm only; naive and
//	            dom always order results)
//	-stats      print evaluation statistics to stderr
//	-machine    print the TwigM machine tree (figure-3 view) and exit
//	-trace      log every TwigM machine transition to stderr (demo view)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dom"
	"repro/internal/naive"
	"repro/internal/xmlscan"
	"repro/internal/xpath"

	vitex "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vitex:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vitex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	query := fs.String("q", "", "XPath query (required)")
	engine := fs.String("engine", "twigm", "engine: twigm | naive | dom")
	countOnly := fs.Bool("count", false, "print only the solution count")
	ordered := fs.Bool("ordered", false, "deliver results in document order")
	stats := fs.Bool("stats", false, "print evaluation statistics to stderr")
	machine := fs.Bool("machine", false, "print the TwigM machine tree and exit")
	traceFlag := fs.Bool("trace", false, "log every TwigM machine transition to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		fs.Usage()
		return fmt.Errorf("-q is required")
	}

	if *machine {
		q, err := vitex.Compile(*query)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, q.MachineDescription())
		return nil
	}

	input := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		input = f
	}

	switch *engine {
	case "twigm":
		var trace io.Writer
		if *traceFlag {
			trace = stderr
		}
		return runTwigM(*query, input, stdout, stderr, *countOnly, *ordered, *stats, trace)
	case "naive":
		return runNaive(*query, input, stdout, stderr, *countOnly, *stats)
	case "dom":
		return runDOM(*query, input, stdout, *countOnly)
	default:
		return fmt.Errorf("unknown engine %q (want twigm, naive or dom)", *engine)
	}
}

func runTwigM(query string, input io.Reader, stdout, stderr io.Writer, countOnly, ordered, wantStats bool, trace io.Writer) error {
	q, err := vitex.Compile(query)
	if err != nil {
		return err
	}
	n := int64(0)
	emit := func(r vitex.Result) error {
		n++
		if !countOnly {
			fmt.Fprintln(stdout, r.Value)
		}
		return nil
	}
	st, err := q.Stream(input, vitex.Options{Ordered: ordered, CountOnly: countOnly, Trace: trace}, emit)
	if err != nil {
		return err
	}
	if countOnly {
		fmt.Fprintln(stdout, n)
	}
	if wantStats {
		fmt.Fprintf(stderr, "events=%d pushes=%d flagProps=%d candidates=%d emitted=%d dropped=%d peakEntries=%d peakBufferedBytes=%d maxDepth=%d\n",
			st.Events, st.Pushes, st.FlagProps, st.CandidatesCreated, st.CandidatesEmitted, st.CandidatesDropped,
			st.PeakStackEntries, st.PeakBufferedBytes, st.MaxDepth)
	}
	return nil
}

func runNaive(query string, input io.Reader, stdout, stderr io.Writer, countOnly, wantStats bool) error {
	parsed, err := xpath.Parse(query)
	if err != nil {
		return err
	}
	eng, err := naive.Compile(parsed)
	if err != nil {
		return err
	}
	results, st, err := naive.Collect(eng, xmlscan.NewScanner(input), naive.Options{})
	if err != nil {
		return err
	}
	if countOnly {
		fmt.Fprintln(stdout, len(results))
	} else {
		for _, r := range results {
			fmt.Fprintln(stdout, r.Value)
		}
	}
	if wantStats {
		fmt.Fprintf(stderr, "events=%d matchesCreated=%d peakMatches=%d solutions=%d\n",
			st.Events, st.MatchesCreated, st.PeakMatches, st.Solutions)
	}
	return nil
}

func runDOM(query string, input io.Reader, stdout io.Writer, countOnly bool) error {
	parsed, err := xpath.Parse(query)
	if err != nil {
		return err
	}
	d, err := dom.Build(xmlscan.NewScanner(input))
	if err != nil {
		return err
	}
	nodes := dom.Eval(d, parsed)
	if countOnly {
		fmt.Fprintln(stdout, len(nodes))
		return nil
	}
	for _, n := range nodes {
		fmt.Fprintln(stdout, n.Serialize())
	}
	return nil
}
