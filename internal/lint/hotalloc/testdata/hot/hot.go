// Package hot is a hotalloc fixture modeled on the scanner/machine inner
// loops.
package hot

import "fmt"

type event struct {
	name  string
	depth int
}

type machine struct {
	stack    []event
	interned map[string]int32
	sink     func(event) error
	err      error
}

type handler interface {
	handle(ev *event) error
}

// step is the per-event hot path: every allocating construct in it must be
// flagged.
//
//vitex:hotpath
func (m *machine) step(ev *event, h handler) {
	bad := map[string]int{} // want `map literal allocates`
	list := []int{1, 2}     // want `slice literal allocates`
	ptr := &event{}         // want `heap-allocated composite literal`
	fn := func() int {      // want `closure literal allocates`
		return 1
	}
	buf := make([]byte, 64) // want `make allocates`
	pe := new(event)        // want `new allocates`
	go m.flush()            // want `go statement allocates`
	fmt.Println(ev.name)    // want `fmt\.Println call allocates` `passing string as interface parameter boxes it`
	s := string(buf)        // want `to string conversion allocates`
	b := []byte(ev.name)    // want `string to \[\]byte/\[\]rune conversion allocates`
	r := string(rune(65))   // want `integer to string conversion allocates`
	m.box(*ev)              // want `passing hot\.event as interface parameter boxes it`
	_ = any(ev.depth)       // want `conversion to interface boxes int`
	m.visit(m.flush)        // want `method value m\.flush allocates a closure`
	m.sink = m.emit         // want `method value m\.emit allocates a closure`
	check := h.handle       // want `method value h\.handle allocates a closure`
	_, _, _, _, _, _, _, _, _ = bad, list, ptr, fn, pe, s, b, r, check
}

// scan is a clean hot path: struct composites, append, map-index reads via
// string(b), comparisons, and pointer arguments allocate nothing.
//
//vitex:hotpath
func (m *machine) scan(name []byte, depth int, h handler) error {
	ev := event{name: "", depth: depth}
	m.stack = append(m.stack, ev)
	if id, ok := m.interned[string(name)]; ok {
		ev.depth = int(id)
	}
	if string(name) == "root" {
		ev.depth = 0
	}
	if h != nil {
		if err := h.handle(&ev); err != nil {
			return err
		}
	}
	if err := (m.emit)(ev); err != nil {
		return err
	}
	m.visit(flushAll)
	return m.err
}

// flush is not marked: the same constructs are fine here.
func (m *machine) flush() {
	t := map[string]int{}
	_ = t
	fmt.Println("cold path")
}

func (m *machine) box(v any) { m.err = nil; _ = v }

func (m *machine) visit(f func()) { f() }

func (m *machine) emit(ev event) error { return m.err }

// flushAll is a function, not a method: passing it binds nothing.
func flushAll() {}
