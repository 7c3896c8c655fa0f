package twigm

import (
	"reflect"
	"testing"
)

// pointerField returns the path of the first field of t, nested structs and
// arrays included, that holds a pointer, string, slice, map, interface, chan
// or func: anything the garbage collector has to scan.
func pointerField(t reflect.Type) (string, bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return t.String(), true
	case reflect.Array:
		if path, ok := pointerField(t.Elem()); ok {
			return "[]" + path, true
		}
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if path, ok := pointerField(f.Type); ok {
				return f.Name + " " + path, true
			}
		}
	}
	return "", false
}

// TestLayoutHoldsNoPointers pins the flat program layout: the program's
// arrays and the dispatch tables' lists hold machine nodes, conditions and
// int32s, which refer to each other by index, so a collection marks a
// standing set's arrays without scanning them.
func TestLayoutHoldsNoPointers(t *testing.T) {
	var elems []reflect.Type
	prog := reflect.TypeFor[Program]()
	for _, name := range []string{"nodes", "conds", "ints"} {
		f, _ := prog.FieldByName(name)
		elems = append(elems, f.Type.Elem())
	}
	table := reflect.TypeFor[dispatchTable]()
	for i := range table.NumField() {
		elems = append(elems, table.Field(i).Type.Elem())
	}
	for _, typ := range append(elems, reflect.TypeFor[span]()) {
		if path, ok := pointerField(typ); ok {
			t.Errorf("%s holds a field the collector scans: %s", typ, path)
		}
	}
	if _, ok := pointerField(reflect.TypeFor[struct{ s []int32 }]()); !ok {
		t.Fatal("pointerField misses a slice field")
	}
}
