// Command vitexlint is the repository's static-analysis gate: a multichecker
// carrying the four repo-specific analyzers (cowsafety, resetcomplete,
// hotalloc, metricsync) that machine-check the invariants the engine's
// correctness story rests on. See docs/invariants.md for the annotation
// vocabulary.
//
// It runs as a vet tool:
//
//	go build -o vitexlint ./cmd/vitexlint
//	go vet -vettool=$(pwd)/vitexlint ./...
//
// and speaks cmd/go's unitchecker protocol: -V=full for the build cache key,
// -flags for flag discovery, and an invocation per package with a vet.cfg
// JSON file argument.
//
// An analyzer may need the annotations of a declaration in another package
// (cowsafety checks calls of internal/cow's //vitex:cowmut methods in the
// engine). Each package's annotations go to the vetx file cmd/go hands its
// importers.
//
// Only production code is checked: _test.go files are filtered out of the
// package variants cmd/go feeds the tool. The invariants are statements
// about the engine's runtime behavior — tests allocate, mutate and lock
// freely.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/cowsafety"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/metricsync"
	"repro/internal/lint/resetcomplete"
)

// analyzers is the suite, in deterministic report order.
var analyzers = []*lint.Analyzer{
	cowsafety.Analyzer,
	hotalloc.Analyzer,
	metricsync.Analyzer,
	resetcomplete.Analyzer,
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			printVersion()
			return
		case args[0] == "-flags" || args[0] == "--flags":
			// No tool-specific flags; cmd/go requires valid JSON here.
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitcheck(args[0]))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(pwd)/vitexlint [packages]")
	os.Exit(1)
}

// printVersion implements -V=full. cmd/go derives the vet cache key from
// this entire line, so it must change whenever the binary does: embed a hash
// of our own executable.
func printVersion() {
	sum := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				sum = hex.EncodeToString(h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("vitexlint version 1.0.0-%s\n", sum)
}

// A located diagnostic, print-ready and sortable.
type finding struct {
	file     string
	line     int
	col      int
	analyzer string
	msg      string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.file, f.line, f.col, f.analyzer, f.msg)
}

// runSuite applies every analyzer to one loaded package, with the
// annotations of the declarations it imports, and returns the findings in
// file/position order.
func runSuite(pkg *lint.Package, facts lint.Facts) ([]finding, error) {
	var out []finding
	pass := &lint.Pass{
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
		Facts: facts,
	}
	for _, a := range analyzers {
		pass.Analyzer = a
		name := a.Name
		pass.Report = func(d lint.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			out = append(out, finding{file: pos.Filename, line: pos.Line, col: pos.Column, analyzer: name, msg: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		if out[i].line != out[j].line {
			return out[i].line < out[j].line
		}
		return out[i].col < out[j].col
	})
	return out, nil
}
