// Recursive demonstrates the paper's core motivation (§1): on recursive
// data, the number of pattern matches is exponential in the query size, so
// an engine that stores matches explicitly blows up while TwigM's compact
// encoding stays polynomial. The program runs both engines on nested-<a>
// chains of growing depth against //a//a//a//b and prints the contrast —
// the live version of experiment E5.
//
// Usage: recursive [-maxdepth 26] [-limit 2000000]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/naive"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

func main() {
	maxDepth := flag.Int("maxdepth", 26, "largest recursion depth to try")
	limit := flag.Int("limit", 2_000_000, "naive engine match limit")
	flag.Parse()

	src := datagen.ChainQuery(3) // //a//a//a//b
	q := xpath.MustParse(src)
	prog, err := twigm.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := naive.Compile(q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query: %s over <a><a>…<b/>…</a></a> chains\n\n", src)
	fmt.Printf("%6s  %15s  %12s  %14s  %12s\n", "depth", "naive matches", "naive time", "twigm entries", "twigm time")
	for depth := 4; depth <= *maxDepth; depth += 2 {
		doc := datagen.RecursiveChain(depth)

		nrun := eng.Start(naive.Options{MaxMatches: *limit})
		nt := time.Now()
		nerr := xmlscan.NewScanner(strings.NewReader(doc)).Run(nrun)
		nel := time.Since(nt)
		nstats := nrun.Stats()

		trun := prog.Start(twigm.Options{CountOnly: true})
		tt := time.Now()
		if err := xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols()).Run(trun); err != nil {
			log.Fatal(err)
		}
		tel := time.Since(tt)
		tstats := trun.Stats()

		naiveMatches := fmt.Sprint(nstats.PeakMatches)
		naiveTime := nel.Round(time.Microsecond).String()
		if errors.Is(nerr, naive.ErrMatchLimit) {
			naiveMatches = fmt.Sprintf(">%d", *limit)
			naiveTime = "gave up"
		} else if nerr != nil {
			log.Fatal(nerr)
		}
		fmt.Printf("%6d  %15s  %12s  %14d  %12s\n",
			depth, naiveMatches, naiveTime, tstats.PeakStackEntries, tel.Round(time.Microsecond))
	}
	fmt.Println("\nTwigM state grows linearly with depth; the naive engine's explicitly")
	fmt.Println("stored pattern matches grow combinatorially — the paper's exponential gap.")
}
