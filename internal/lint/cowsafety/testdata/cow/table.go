package cow

// table is modeled on internal/cow.Table: a chunked copy-on-write array
// whose one writer copies a chunk unless the table already owns it.
//
//vitex:cow
type table[T any] struct {
	spine []*chunk[T]
	n     int
	owner uint64
}

//vitex:cow
type chunk[T any] struct {
	owner uint64
	items []T
}

// at reads; no reports.
func (t *table[T]) at(i int) T { return t.spine[i>>6].items[i&63] }

// set is the table's one writer.
//
//vitex:cowmut
func (t *table[T]) set(i int, v T) {
	c := t.spine[i>>6]
	if c.owner != t.owner {
		c = &chunk[T]{owner: t.owner, items: append([]T(nil), c.items...)}
		t.spine[i>>6] = c
	}
	c.items[i&63] = v
}

// poke writes a chunk in place outside the writer: a published epoch's
// readers would see it.
func poke(t *table[int], i, v int) {
	t.spine[i>>6].items[i&63] = v // want `write to field chunk\.items of copy-on-write type`
	t.n++                         // want `write to field table\.n of copy-on-write type`
}

// pokeChunk writes through a chunk pointer taken from the spine.
func pokeChunk(t *table[int], v int) {
	c := t.spine[0]
	c.items[0] = v // want `write to field chunk\.items of copy-on-write type`
	c.owner = 0    // want `write to field chunk\.owner of copy-on-write type`
}

// push writes through the writer, so it is a writer too.
//
//vitex:cowmut
func (t *table[T]) push(v T) { t.set(t.n, v) }

// pushUnmarked writes through the writer without saying so.
func (t *table[T]) pushUnmarked(v T) {
	t.set(t.n, v) // want `call of writer set on t, a pointer to copy-on-write type table`
}

// tables holds chunked tables the way an epoch does.
//
//vitex:cow
type tables struct {
	progs table[*prog]
	subs  []table[int32]
}

// setProg writes a published epoch's table through its writer.
func setProg(ts *tables, p *prog) {
	ts.progs.set(0, p)    // want `call of writer set on field tables\.progs of copy-on-write type`
	ts.subs[1].push(7)    // want `call of writer push on field tables\.subs of copy-on-write type`
	_ = ts.progs.at(0)    // a read
	(&ts.progs).set(1, p) // want `call of writer set on field tables\.progs of copy-on-write type`
}

// fill is handed a table to write.
func fill(t *table[int32]) {
	t.push(1) // want `call of writer push on t, a pointer to copy-on-write type table`
}

// fillMarked is a writer that says so.
//
//vitex:cowmut
func fillMarked(t *table[int32], ts *tables) {
	t.push(1)
	ts.progs.set(0, nil)
}

// fresh writes only tables it made.
func fresh() table[int32] {
	var t table[int32]
	t.push(1)
	ts := &tables{}
	_ = ts
	return t
}
