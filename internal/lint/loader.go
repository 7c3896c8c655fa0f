package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// DepOnly marks a package loaded only as a dependency of those the
	// patterns match: its annotations are facts for its importers, its
	// findings nobody's.
	DepOnly bool
}

// LoadPackages loads the packages matching patterns (relative to dir), and
// the non-standard packages they depend on, type-checking them from source
// against their dependencies' export data. It shells out to `go list -export
// -deps -json`, which resolves entirely from the local build cache — no
// network, no module proxy.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = p.DepOnly
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// ExportData resolves import paths to export-data files by shelling out to
// `go list -export -deps -json` in dir. Used by the fixture harness, whose
// packages live outside the module's package graph.
func ExportData(dir string, importPaths []string) (map[string]string, error) {
	if len(importPaths) == 0 {
		return map[string]string{}, nil
	}
	listed, err := goList(dir, importPaths)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// NewImporter returns a gc-export-data importer backed by the given
// import-path → export-file map.
func NewImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// TypeCheck parses nothing; it type-checks already-parsed files as package
// pkgPath using imp, returning the checked package and filled Info.
func TypeCheck(pkgPath string, fset *token.FileSet, files []*ast.File, imp types.Importer, goVersion string) (*types.Package, *types.Info, error) {
	info := NewInfo()
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: langVersion(goVersion),
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}

// langVersion trims a toolchain version like "go1.24.5" to the language
// version "go1.24" accepted by types.Config.GoVersion.
func langVersion(v string) string {
	if v == "" {
		return ""
	}
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}

type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Export,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

func checkPackage(fset *token.FileSet, imp types.Importer, p *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tpkg, info, err := TypeCheck(p.ImportPath, fset, files, imp, "")
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", p.ImportPath, err)
	}
	return &Package{PkgPath: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
