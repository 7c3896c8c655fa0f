// Package cowsafety enforces the copy-on-write discipline of the epoch
// engine: once a struct marked //vitex:cow is published (an epoch swapped
// into the engine's atomic pointer, a Trie shared by live runs), it must
// never be written again — readers hold snapshots with no locks, so any
// in-place write is a data race. Mutation is only legal inside the small,
// audited set of builder/clone functions marked //vitex:cowmut, which by
// convention operate on private copies before publication.
//
// The analyzer reports every assignment, compound assignment, or ++/--
// whose target is (or passes through) a field of a //vitex:cow struct when
// the enclosing function is not marked //vitex:cowmut. Constructing a fresh
// value with a composite literal is always allowed.
//
// A call of a //vitex:cowmut method is a write to its receiver, so it is
// reported on the same terms when the receiver is (or passes through) a field
// of a //vitex:cow struct — ep.progs.Set(i, p) on an epoch's table — or is a
// parameter or receiver holding a pointer to a //vitex:cow type: a helper
// that writes a table it was handed is a writer too. A local variable holds
// a fresh value (a composite literal, a clone) and may be written. The method may live in another package: the epoch's tables are
// internal/cow Tables, whose markers reach the engine as the pass's Facts.
// Every cow type in this repository has only unexported fields, so direct
// writes from another package are compile errors already.
package cowsafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the cowsafety analysis.
var Analyzer = &lint.Analyzer{
	Name: "cowsafety",
	Doc:  "reports writes to fields of //vitex:cow structs, and calls of //vitex:cowmut methods on them, outside //vitex:cowmut functions",
	Run:  run,
}

func run(pass *lint.Pass) error {
	m := pass.Markers()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil && m.Has(obj, "cowmut") {
				continue
			}
			params := params(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range s.Lhs {
						checkWrite(pass, m, lhs)
					}
				case *ast.IncDecStmt:
					checkWrite(pass, m, s.X)
				case *ast.CallExpr:
					checkCall(pass, m, params, s)
				}
				return true
			})
		}
	}
	return nil
}

// checkWrite walks the written expression toward its base, reporting the
// first selection of a field belonging to a //vitex:cow struct. Walking the
// whole path catches indirect writes such as ep.progs[slot] = nil and
// t.nodes[id].refs++, both of which mutate cow-owned state.
func checkWrite(pass *lint.Pass, m *lint.Markers, expr ast.Expr) {
	if sel, owner, fld := cowField(pass, m, expr); sel != nil {
		pass.Reportf(sel.Sel.Pos(), "write to field %s.%s of copy-on-write type outside a //vitex:cowmut function", owner.Name(), fld.Name())
	}
}

// params returns the receiver and parameters of fd.
func params(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if list == nil {
			continue
		}
		for _, f := range list.List {
			for _, name := range f.Names {
				out[pass.Info.Defs[name]] = true
			}
		}
	}
	return out
}

// checkCall reports a call of a //vitex:cowmut method whose receiver is
// cow-owned: a field of a //vitex:cow struct, or one of params holding a
// pointer to a //vitex:cow type.
func checkCall(pass *lint.Pass, m *lint.Markers, params map[types.Object]bool, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !m.Has(s.Obj(), "cowmut") {
		return
	}
	if fsel, owner, fld := cowField(pass, m, sel.X); fsel != nil {
		pass.Reportf(sel.Sel.Pos(), "call of writer %s on field %s.%s of copy-on-write type outside a //vitex:cowmut function", sel.Sel.Name, owner.Name(), fld.Name())
		return
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || !params[pass.Info.Uses[id]] {
		return
	}
	if p, ok := pass.Info.TypeOf(id).(*types.Pointer); ok {
		if owner, _ := lint.NamedStruct(p.Elem()); owner != nil && m.Has(owner, "cow") {
			pass.Reportf(sel.Sel.Pos(), "call of writer %s on %s, a pointer to copy-on-write type %s, outside a //vitex:cowmut function", sel.Sel.Name, id.Name, owner.Name())
		}
	}
}

// cowField walks expr toward its base and returns the first selection of a
// field belonging to a //vitex:cow struct, with the struct's type and the
// field; sel is nil when there is none.
func cowField(pass *lint.Pass, m *lint.Markers, expr ast.Expr) (sel *ast.SelectorExpr, owner *types.TypeName, fld *types.Var) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr: // &ep.progs, a writer's explicit receiver
			if e.Op != token.AND {
				return nil, nil, nil
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if fld := lint.SelectedField(pass.Info, e); fld != nil {
				owner, _ := lint.NamedStruct(pass.Info.TypeOf(e.X))
				if owner != nil && m.Has(owner, "cow") {
					return e, owner, fld
				}
			}
			expr = e.X
		default:
			return nil, nil, nil
		}
	}
}
