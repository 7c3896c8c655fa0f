// Protein reproduces the paper's headline measurement (§2 claim 5) at a
// configurable scale: //ProteinEntry[reference]/@id over a PIR-shaped
// protein corpus, reporting total time, SAX-parse share and peak engine
// memory — the numbers behind "6.02 seconds (including 4.43 seconds for SAX
// parsing)" and "memory requirement … stable at 1MB" on the 75MB dataset.
//
// Usage: protein [-mb 75]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/sax"
	"repro/internal/xmlscan"

	vitex "repro"
)

func main() {
	mb := flag.Int("mb", 8, "corpus size in MiB (paper scale: 75)")
	flag.Parse()

	path := filepath.Join(os.TempDir(), fmt.Sprintf("vitex-example-protein-%dMB.xml", *mb))
	if _, err := os.Stat(path); err != nil {
		fmt.Printf("generating %dMiB protein corpus...\n", *mb)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := (datagen.Protein{TargetBytes: int64(*mb) << 20, Seed: 1}).WriteTo(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	st, _ := os.Stat(path)
	fmt.Printf("corpus: %s (%s)\n", path, metrics.Bytes(uint64(st.Size())))

	// Phase 1: SAX parsing alone (the paper's 4.43s share).
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	t := metrics.StartTimer()
	events := 0
	err = xmlscan.NewScanner(f).Run(sax.PerEvent(func(*sax.Event) error { events++; return nil }))
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	parse := t.Elapsed()
	fmt.Printf("SAX parse only:  %v (%d events, %s)\n", parse, events, metrics.Throughput(st.Size(), parse))

	// Phase 2: the full query pipeline with heap sampling.
	q := vitex.MustCompile(datagen.PaperProteinQuery)
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	count := 0
	t = metrics.StartTimer()
	stats, err := q.Stream(f, vitex.Options{CountOnly: true}, func(vitex.Result) error {
		count++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	total := t.Elapsed()
	fmt.Printf("parse + TwigM:   %v (%s), %d ids found\n", total, metrics.Throughput(st.Size(), total), count)
	fmt.Printf("parse share:     %.0f%% (paper: 74%%)\n", float64(parse)/float64(total)*100)
	fmt.Printf("peak machine state: %d stack entries, %s buffered\n",
		stats.PeakStackEntries, metrics.Bytes(uint64(stats.PeakBufferedBytes)))
}
