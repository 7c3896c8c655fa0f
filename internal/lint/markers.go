package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MarkerPrefix introduces an annotation comment. Annotations use Go's
// directive-comment syntax (no space after //), so godoc hides them:
//
//	//vitex:cow
//	//vitex:guardedby=mu
//	//vitex:keep arena block is recycled deliberately
//
// The first token after the colon is the marker name; an optional =value
// runs to the first whitespace; everything after a space is free-text
// justification, which the analyzers ignore but humans should write.
const MarkerPrefix = "//vitex:"

// A Marker is one parsed //vitex: annotation.
type Marker struct {
	Name  string
	Value string
}

// Markers indexes the //vitex: annotations of a package by the declared
// object (type, func, or struct field) they document, and answers for
// imported types and functions from the Facts the driver hands the pass.
type Markers struct {
	byObj    map[types.Object][]Marker
	imported Facts
}

// Facts are the annotations of other packages' types and functions, keyed by
// ObjectKey. An analyzer needs them where a package uses an annotated
// declaration of another, such as a //vitex:cowmut method of an imported
// //vitex:cow type. The drivers carry each package's to its importers.
type Facts map[string][]Marker

// Export adds the annotations of the package's types, functions and methods
// to facts.
func (m *Markers) Export(facts Facts) {
	for obj, mks := range m.byObj {
		if key := ObjectKey(obj); key != "" {
			facts[key] = mks
		}
	}
}

// ObjectKey names a package-level type or function, or a method, the same way
// in every package that sees it: "path.Name" or "path.Recv.Name". It is ""
// for any other object.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	switch o := obj.(type) {
	case *types.TypeName:
		return o.Pkg().Path() + "." + o.Name()
	case *types.Func:
		recv := o.Origin().Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			return o.Pkg().Path() + "." + n.Obj().Name() + "." + o.Name()
		}
	}
	return ""
}

// Has reports whether obj carries the named marker.
func (m *Markers) Has(obj types.Object, name string) bool {
	_, ok := m.Value(obj, name)
	return ok
}

// Value returns the =value of the named marker on obj, and whether the
// marker is present at all.
func (m *Markers) Value(obj types.Object, name string) (string, bool) {
	if m == nil || obj == nil {
		return "", false
	}
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin() // a method of an instantiated generic type
	}
	mks, ok := m.byObj[obj]
	if !ok {
		mks = m.imported[ObjectKey(obj)]
	}
	for _, mk := range mks {
		if mk.Name == name {
			return mk.Value, true
		}
	}
	return "", false
}

// CollectMarkers parses the //vitex: annotations of the given files,
// binding each to the type, function, or struct field whose doc (or trailing
// line comment) carries it.
func CollectMarkers(files []*ast.File, info *types.Info) *Markers {
	m := &Markers{byObj: make(map[types.Object][]Marker)}
	add := func(obj types.Object, groups ...*ast.CommentGroup) {
		if obj == nil {
			return
		}
		for _, g := range groups {
			m.byObj[obj] = append(m.byObj[obj], parseGroup(g)...)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(info.Defs[d.Name], d.Doc)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					add(info.Defs[ts.Name], doc, ts.Comment)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || st.Fields == nil {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, nm := range fld.Names {
							add(info.Defs[nm], fld.Doc, fld.Comment)
						}
						if len(fld.Names) == 0 {
							// An embedded field: Defs maps its type name to
							// the field.
							add(info.Defs[embeddedName(fld.Type)], fld.Doc, fld.Comment)
						}
					}
				}
			}
		}
	}
	return m
}

// embeddedName returns the identifier naming an embedded field of type t.
func embeddedName(t ast.Expr) *ast.Ident {
	switch t := t.(type) {
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	case *ast.IndexExpr:
		return embeddedName(t.X)
	case *ast.Ident:
		return t
	}
	return nil
}

func parseGroup(g *ast.CommentGroup) []Marker {
	if g == nil {
		return nil
	}
	var out []Marker
	for _, c := range g.List {
		rest, ok := strings.CutPrefix(c.Text, MarkerPrefix)
		if !ok {
			continue
		}
		// Strip free-text justification after the first space.
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			rest = rest[:i]
		}
		name, value, _ := strings.Cut(rest, "=")
		if name != "" {
			out = append(out, Marker{Name: name, Value: value})
		}
	}
	return out
}
