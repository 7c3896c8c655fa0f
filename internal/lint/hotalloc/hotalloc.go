// Package hotalloc keeps the per-event hot paths allocation-free. The
// steady-state benchmark result this reproduction defends (a fixed ~210
// allocations per document at 100 queries, all front-loaded in session
// setup) only holds while the code running per XML event never allocates;
// one fmt call or escaping closure in the scanner inner loop turns into
// millions of allocations per gigabyte of input.
//
// Functions marked //vitex:hotpath may not contain:
//
//   - map- or slice-typed composite literals, or &T{...} of any type
//   - function literals (closures), and method values: x.M used other than
//     as the function of a call binds x into a closure, which allocates once
//     it escapes (a callback argument, a field, a return value)
//   - make or new of any type, or go statements
//   - string <-> []byte/[]rune conversions, or integer -> string
//     conversions, EXCEPT string(b) used directly as a map index or
//     compared with == / !=, which the compiler optimizes to not allocate
//   - calls to the fmt package
//   - interface boxing at call sites: passing a concrete non-pointer-shaped
//     value (struct, string, slice, int, ...) as an interface parameter
//
// Value-struct and array composite literals, append, and numeric
// conversions stay legal: they do not allocate. Cold paths called FROM a
// hot function (error constructors, arena refills) are simply left
// unmarked — the annotation is a per-function contract, and reviewers
// decide where the hot region ends.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the hotalloc analysis.
var Analyzer = &lint.Analyzer{
	Name: "hotalloc",
	Doc:  "reports allocating constructs inside //vitex:hotpath functions",
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
			obj := pass.Info.Defs[fd.Name]
			if obj == nil || !m.Has(obj, "hotpath") {
				continue
			}
			w := &walker{pass: pass}
			ast.Walk(w, fd.Body)
		}
	}
	return nil
}

// walker visits a hot function body keeping a parent stack, so conversions
// can see the expression they feed into.
type walker struct {
	pass  *lint.Pass
	stack []ast.Node
}

func (w *walker) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		w.stack = w.stack[:len(w.stack)-1]
		return nil
	}
	if !w.check(n) {
		// Returning nil prunes the subtree; ast.Walk then skips the
		// matching Visit(nil), so nothing is pushed here.
		return nil
	}
	w.stack = append(w.stack, n)
	return w
}

func (w *walker) parent() ast.Node {
	if len(w.stack) == 0 {
		return nil
	}
	return w.stack[len(w.stack)-1]
}

// check reports allocating constructs at n and returns whether the walk
// should descend into n's children.
func (w *walker) check(n ast.Node) bool {
	switch e := n.(type) {
	case *ast.FuncLit:
		w.pass.Reportf(e.Pos(), "closure literal allocates in //vitex:hotpath function")
		return false
	case *ast.GoStmt:
		w.pass.Reportf(e.Pos(), "go statement allocates in //vitex:hotpath function")
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := e.X.(*ast.CompositeLit); ok {
				w.pass.Reportf(cl.Pos(), "heap-allocated composite literal (&%s{...}) in //vitex:hotpath function", typeName(w.pass, cl))
				return false
			}
		}
	case *ast.CompositeLit:
		switch w.pass.Info.TypeOf(e).Underlying().(type) {
		case *types.Map:
			w.pass.Reportf(e.Pos(), "map literal allocates in //vitex:hotpath function")
			return false
		case *types.Slice:
			w.pass.Reportf(e.Pos(), "slice literal allocates in //vitex:hotpath function")
			return false
		}
	case *ast.SelectorExpr:
		if sel := w.pass.Info.Selections[e]; sel != nil && sel.Kind() == types.MethodVal && !w.called(e) {
			w.pass.Reportf(e.Pos(), "method value %s.%s allocates a closure in //vitex:hotpath function", types.ExprString(e.X), e.Sel.Name)
		}
	case *ast.CallExpr:
		return w.checkCall(e)
	}
	return true
}

// called reports whether the selector e is the function of a call, perhaps
// parenthesized, which binds no closure.
func (w *walker) called(e *ast.SelectorExpr) bool {
	for i := len(w.stack) - 1; i >= 0; i-- {
		if _, paren := w.stack[i].(*ast.ParenExpr); paren {
			continue
		}
		call, ok := w.stack[i].(*ast.CallExpr)
		return ok && peel(call.Fun) == e
	}
	return false
}

func (w *walker) checkCall(call *ast.CallExpr) bool {
	info := w.pass.Info
	switch fun := peel(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				w.pass.Reportf(call.Pos(), "make allocates in //vitex:hotpath function")
			case "new":
				w.pass.Reportf(call.Pos(), "new allocates in //vitex:hotpath function")
			}
			return true
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				w.pass.Reportf(call.Pos(), "fmt.%s call allocates in //vitex:hotpath function", fun.Sel.Name)
				// Fall through: its arguments may additionally box.
			}
		}
	}

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		w.checkConversion(call, tv.Type)
		return true
	}

	w.checkBoxing(call)
	return true
}

// checkConversion flags string<->bytes/runes and integer->string
// conversions, honoring the map-index and string-comparison exemptions.
func (w *walker) checkConversion(call *ast.CallExpr, dst types.Type) {
	src := w.pass.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	switch {
	case isString(du) && isByteOrRuneSlice(su):
		if w.conversionExempt(call) {
			return
		}
		w.pass.Reportf(call.Pos(), "[]byte/[]rune to string conversion allocates in //vitex:hotpath function")
	case isByteOrRuneSlice(du) && isString(su):
		w.pass.Reportf(call.Pos(), "string to []byte/[]rune conversion allocates in //vitex:hotpath function")
	case isString(du) && isInteger(su):
		w.pass.Reportf(call.Pos(), "integer to string conversion allocates in //vitex:hotpath function")
	default:
		// Conversion to an interface type boxes the operand.
		if types.IsInterface(du) && !types.IsInterface(su) && !pointerShaped(su) {
			w.pass.Reportf(call.Pos(), "conversion to interface boxes %s in //vitex:hotpath function", src)
		}
	}
}

// conversionExempt reports whether the string(b) conversion feeds a context
// the compiler optimizes without allocating: a map index read or an
// equality comparison.
func (w *walker) conversionExempt(call *ast.CallExpr) bool {
	switch p := w.parent().(type) {
	case *ast.IndexExpr:
		if p.Index != call {
			return false
		}
		_, isMap := w.pass.Info.TypeOf(p.X).Underlying().(*types.Map)
		return isMap
	case *ast.BinaryExpr:
		return p.Op == token.EQL || p.Op == token.NEQ
	}
	return false
}

// checkBoxing flags concrete, non-pointer-shaped arguments passed to
// interface parameters.
func (w *walker) checkBoxing(call *ast.CallExpr) {
	info := w.pass.Info
	ft := info.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed as-is, nothing boxes
			}
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isTP := at.(*types.TypeParam); isTP || pointerShaped(at.Underlying()) {
			continue
		}
		w.pass.Reportf(arg.Pos(), "passing %s as interface parameter boxes it in //vitex:hotpath function", at)
	}
}

func typeName(pass *lint.Pass, cl *ast.CompositeLit) string {
	if t := pass.Info.TypeOf(cl); t != nil {
		if tn, _ := lint.NamedStruct(t); tn != nil {
			return tn.Name()
		}
		return t.String()
	}
	return "T"
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInteger(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of underlying type u fit in one
// pointer word, so converting them to an interface does not allocate.
func pointerShaped(u types.Type) bool {
	switch b := u.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return b.Kind() == types.UnsafePointer
	}
	return false
}

func peel(expr ast.Expr) ast.Expr {
	for {
		p, ok := expr.(*ast.ParenExpr)
		if !ok {
			return expr
		}
		expr = p.X
	}
}
