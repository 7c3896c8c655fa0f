// Protein reproduces the paper's headline measurement (§2 claim 5) at a
// configurable scale: //ProteinEntry[reference]/@id over a PIR-shaped
// protein corpus, reporting the time of a bare parse, the time of the whole
// pipeline and peak machine state — the numbers behind "6.02 seconds
// (including 4.43 seconds for SAX parsing)" and "memory requirement … stable
// at 1MB" on the 75MB dataset.
//
// It prints no parse share. The bare parse hands every event to a no-op
// handler, while the engine's scan projects the document to what the query
// observes and hands its machine a fraction of them, so a ratio of the two
// times compares different work (from one sample each, it read 78–110%).
// The engine's own event counts show the difference instead; the claim's
// structure is checked on exact counts by TestE1ParseDominated.
//
// Usage: protein [-mb 75]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/sax"
	"repro/internal/xmlscan"

	vitex "repro"
)

func main() {
	mb := flag.Int("mb", 8, "corpus size in MiB (paper scale: 75)")
	flag.Parse()

	path := filepath.Join(os.TempDir(), fmt.Sprintf("vitex-example-protein-%dMB.xml", *mb))
	st, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Printf("generating %dMiB protein corpus...\n", *mb)
		if err := generate(path, *mb); err != nil {
			log.Fatal(err)
		}
		st, err = os.Stat(path)
	}
	if err != nil {
		log.Fatal(err)
	}
	size := st.Size()
	fmt.Printf("corpus: %s (%.1f MiB)\n", path, float64(size)/(1<<20))

	// Phase 1: SAX parsing alone (the paper's 4.43s share).
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	events := 0
	err = xmlscan.NewScanner(f).Run(sax.PerEvent(func(*sax.Event) error { events++; return nil }))
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	parse := time.Since(start)
	fmt.Printf("SAX parse only:  %v (%d events, %.1f MB/s)\n", parse, events, float64(size)/1e6/parse.Seconds())

	// Phase 2: the full query pipeline.
	qs, err := vitex.NewQuerySet(datagen.PaperProteinQuery)
	if err != nil {
		log.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	count := 0
	start = time.Now()
	stats, err := qs.Stream(f, vitex.Options{CountOnly: true}, func(vitex.SetResult) error {
		count++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	total := time.Since(start)
	m := qs.Metrics()
	fmt.Printf("parse + TwigM:   %v (%.1f MB/s), %d ids found\n", total, float64(size)/1e6/total.Seconds(), count)
	fmt.Printf("engine:          %d events scanned, %d machine deliveries\n", m.Events, m.Deliveries)
	fmt.Printf("peak machine state: %d stack entries, %d B buffered\n", stats[0].PeakStackEntries, stats[0].PeakBufferedBytes)
}

// generate writes the corpus under a temporary name and renames it to path
// once complete, so an interrupted run leaves no truncated corpus behind for
// the next run to reuse.
func generate(path string, mb int) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = datagen.Protein{TargetBytes: int64(mb) << 20, Seed: 1}.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
