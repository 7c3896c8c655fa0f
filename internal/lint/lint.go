// Package lint is a small, dependency-free analysis framework in the shape
// of golang.org/x/tools/go/analysis, carrying the four vitexlint analyzers
// that machine-check this repository's core invariants (copy-on-write
// epochs, pool hygiene, allocation-free hot paths, counter synchronization).
//
// The build environment for this repository has no module proxy access, so
// the real x/tools framework cannot be vendored; this package mirrors its
// Analyzer/Pass/Diagnostic surface closely enough that the analyzers are a
// mechanical import-swap away from running under the upstream driver.
// Analyzers run on one package at a time. The guarded state is unexported,
// so writes from another package are compile errors already; what crosses a
// package boundary is the annotations of imported types and functions, which
// the drivers hand each pass as Facts.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and driver flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to a single package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass provides one analyzer with a single type-checked package and a sink
// for its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)
	// Facts are the annotations of imported declarations (nil for none).
	Facts Facts

	markers *Markers
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Markers returns the //vitex: annotations of the package, with the pass's
// Facts for imported declarations, collected lazily and shared by all
// analyzers running over the same Pass data.
func (p *Pass) Markers() *Markers {
	if p.markers == nil {
		p.markers = CollectMarkers(p.Files, p.Info)
		p.markers.imported = p.Facts
	}
	return p.markers
}

// NamedStruct peels pointers and aliases from t and, when the result is a
// named struct type, returns its TypeName and underlying struct.
func NamedStruct(t types.Type) (*types.TypeName, *types.Struct) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(u)
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named.Obj(), st
}

// IsNamed reports whether t (after peeling one level of pointer) is the
// named type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// SelectedField resolves a selector expression to the struct field it
// selects, or nil when it selects a method, package member, or nothing.
func SelectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok {
		if s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
		return nil
	}
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// NewInfo returns a types.Info with every map the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
