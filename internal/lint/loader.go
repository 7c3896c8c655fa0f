package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
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
	ImportPath string
	Export     string
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
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
