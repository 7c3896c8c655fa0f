// Command vitexbench regenerates the quantitative claims of the ViteX paper
// (experiments E1-E9; see DESIGN.md §3 and EXPERIMENTS.md). At the default
// scale it reproduces the paper's setting — a 75MB protein corpus — which
// takes a few seconds per experiment plus one-time corpus generation; use
// -mb to scale down.
//
// The repository's performance benchmark is not here: see bench/README.md
// (`bash bench/run.sh`).
//
// Usage:
//
//	vitexbench [-exp e1,e2,...|all] [-mb 75] [-seed 1] [-dir cache-dir]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vitexbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vitexbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiments (e1..e9) or 'all'")
	mb := fs.Int("mb", 75, "protein corpus size in MiB (paper: 75)")
	seed := fs.Int64("seed", 1, "generator seed")
	dir := fs.String("dir", "", "corpus cache directory (default: OS temp dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{ProteinMB: *mb, Seed: *seed, Dir: *dir, Out: os.Stderr}

	want := map[string]bool{}
	if *exp == "all" {
		for i := 1; i <= 9; i++ {
			want[fmt.Sprintf("e%d", i)] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			want[strings.ToLower(strings.TrimSpace(e))] = true
		}
	}

	// Memory-scaling sizes for E2/E3: quarter points up to the full size.
	sizes := []int{*mb / 8, *mb / 4, *mb / 2, *mb}
	var cleaned []int
	for _, s := range sizes {
		if s >= 1 {
			cleaned = append(cleaned, s)
		}
	}
	if len(cleaned) == 0 {
		cleaned = []int{1}
	}

	section := func(table string) {
		fmt.Fprintln(stdout, table)
	}

	if want["e1"] {
		res, err := cfg.RunE1()
		if err != nil {
			return fmt.Errorf("E1: %w", err)
		}
		section(res.Table)
	}
	if want["e2"] {
		res, err := cfg.RunE2(cleaned)
		if err != nil {
			return fmt.Errorf("E2: %w", err)
		}
		section(res.Table)
	}
	if want["e3"] {
		res, err := cfg.RunE3(cleaned)
		if err != nil {
			return fmt.Errorf("E3: %w", err)
		}
		section(res.Table)
	}
	if want["e4"] {
		res, err := cfg.RunE4(10, 200)
		if err != nil {
			return fmt.Errorf("E4: %w", err)
		}
		section(res.Table)
	}
	if want["e5"] {
		res, err := cfg.RunE5([]int{6, 10, 14, 18, 22, 26}, 5_000_000)
		if err != nil {
			return fmt.Errorf("E5: %w", err)
		}
		section(res.Table)
		resb, err := cfg.RunE5b(20, 7, 5_000_000)
		if err != nil {
			return fmt.Errorf("E5b: %w", err)
		}
		section(resb.Table)
	}
	if want["e6"] {
		res, err := cfg.RunE6()
		if err != nil {
			return fmt.Errorf("E6: %w", err)
		}
		fmt.Fprintln(stdout, "TwigM machine (figure 3):")
		fmt.Fprint(stdout, res.Machine)
		section(res.Table)
	}
	if want["e7"] {
		res, err := cfg.RunE7([]int{1, 9, 17, 33, 63}, 5000)
		if err != nil {
			return fmt.Errorf("E7: %w", err)
		}
		section(res.Table)
	}
	if want["e8"] {
		res, err := cfg.RunE8(100000)
		if err != nil {
			return fmt.Errorf("E8: %w", err)
		}
		section(res.Table)
	}
	if want["e9"] {
		res, err := cfg.RunE9(100000)
		if err != nil {
			return fmt.Errorf("E9: %w", err)
		}
		section(res.Table)
	}
	return nil
}
