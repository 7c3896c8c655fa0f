package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// vetConfig mirrors the JSON config cmd/go writes for each vet invocation
// (see $GOROOT/src/cmd/go/internal/work/exec.go, type vetConfig).
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string

	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ImportMap   map[string]string // import path -> canonical path
	PackageFile map[string]string // canonical path -> export data file
	Standard    map[string]bool

	PackageVetx map[string]string // canonical path -> vetx file: a direct import's facts
	VetxOnly    bool              // only write vetx, no diagnostics wanted
	VetxOutput  string            // write this package's facts here

	SucceedOnTypecheckFailure bool
}

// unitcheck runs the suite on one package described by a cmd/go vet.cfg
// file, printing diagnostics to stderr. Exit codes follow the unitchecker
// convention: 0 clean, 1 tool failure, 2 diagnostics.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vitexlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vitexlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// cmd/go reads VetxOutput back for its cache; write an empty fact set
	// first so every exit path below is cacheable.
	if err := writeFacts(cfg.VetxOutput, lint.Facts{}); err != nil {
		fmt.Fprintf(os.Stderr, "vitexlint: %v\n", err)
		return 1
	}

	// The invariants target production code only; go vet also feeds test
	// package variants, whose _test.go files are out of scope.
	goFiles := cfg.GoFiles[:0:0]
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		if !isTestFile(name) {
			goFiles = append(goFiles, name)
		}
	}
	// Dependency-only invocations exist to export facts: the annotations of
	// a package that has any. The rest, the entire standard library among
	// them, are no-ops.
	if len(goFiles) == 0 || cfg.VetxOnly && !annotated(goFiles) {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "vitexlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	imp := lint.NewImporter(fset, exportMap(&cfg))
	tpkg, info, err := lint.TypeCheck(cfg.ImportPath, fset, files, imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "vitexlint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	own := lint.Facts{}
	lint.CollectMarkers(files, info).Export(own)
	if err := writeFacts(cfg.VetxOutput, own); err != nil {
		fmt.Fprintf(os.Stderr, "vitexlint: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return 0
	}
	facts := lint.Facts{}
	for _, file := range cfg.PackageVetx {
		if err := readFacts(file, facts); err != nil {
			fmt.Fprintf(os.Stderr, "vitexlint: %v\n", err)
			return 1
		}
	}

	diags, err := runSuite(&lint.Package{PkgPath: cfg.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, facts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vitexlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// annotated reports whether any of the files carries a //vitex: annotation,
// which makes its package's facts worth exporting.
func annotated(files []string) bool {
	for _, name := range files {
		if data, err := os.ReadFile(name); err != nil || bytes.Contains(data, []byte(lint.MarkerPrefix)) {
			return true // an unreadable file fails in the parse that follows
		}
	}
	return false
}

// writeFacts writes facts as the vetx file path; "" means cmd/go wants none.
func writeFacts(path string, facts lint.Facts) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// readFacts adds the facts of the vetx file path to facts.
func readFacts(path string, facts lint.Facts) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var imported lint.Facts
	if err := json.Unmarshal(data, &imported); err != nil {
		return fmt.Errorf("reading facts %s: %v", path, err)
	}
	maps.Copy(facts, imported)
	return nil
}

// isTestFile reports whether a Go file name (absolute or not) is a test file.
func isTestFile(name string) bool {
	return strings.HasSuffix(filepath.Base(name), "_test.go")
}

// exportMap flattens the cfg's two-level import resolution (import path ->
// canonical path -> export file) into the single map the importer wants.
func exportMap(cfg *vetConfig) map[string]string {
	exports := make(map[string]string, len(cfg.PackageFile))
	for canonical, file := range cfg.PackageFile {
		exports[canonical] = file
	}
	for path, canonical := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canonical]; ok {
			exports[path] = file
		}
	}
	return exports
}
