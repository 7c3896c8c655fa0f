// Package cow provides Table, a chunked copy-on-write array: the persistent
// vector of Bagwell's "Ideal Hash Trees" (2001), one level deep.
//
// The engine publishes its membership as immutable epochs, and every mutation
// builds the next epoch from the current one. With flat slices that build
// copies every slot- and symbol-indexed table, so a mutation costs the size
// of the standing set. A Table splits its elements into fixed-size chunks
// under a spine of chunk pointers. Clone shares the spine and every chunk,
// and the first write to each of them copies it for the clone alone, so a
// mutation costs one spine plus the chunks it touches: O(n/chunkSize +
// chunkSize) per table touched, not O(n).
//
// Ownership is what makes the write in place safe. Each Table value carries
// an owner token, and so does every chunk it has copied or created; Set
// writes in place into a chunk that carries its own token and copies any
// other. A published table is never written again (its owner is gone: the
// epoch that built it was swapped in), so readers holding it see a frozen
// array. A Table value must therefore reach a second owner only through
// Clone: two copies of one value share its token and would write into each
// other's chunks.
package cow

import "sync/atomic"

// chunkBits sets the chunk size, 256 elements: at 1,000 to 10,000 slots a
// write then costs about the same, and at 100,000 a spine is still smaller
// than the chunks a mutation touches (hypotheses/churn-cost/FINDINGS.md).
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// tokens issues owner tokens; 0 is never issued.
var tokens atomic.Uint64

// Table is a chunked copy-on-write array of T. The zero value is an empty
// table ready to be written.
//
//vitex:cow
type Table[T any] struct {
	spine []*chunk[T]
	n     int
	// owner is the token of the Table value that may write in place: a
	// chunk carrying it was copied or created by this value. 0 until the
	// first write.
	owner uint64
	// ownSpine reports whether spine is this value's own copy.
	ownSpine bool
}

// chunk is up to chunkSize consecutive elements and the token of the Table
// value that owns them. Only the last chunk of a table is short, so a small
// table costs what it holds.
//
//vitex:cow
type chunk[T any] struct {
	owner uint64
	items []T
}

// Len returns the number of elements.
func (t *Table[T]) Len() int { return t.n }

// At returns element i, which must be below Len.
//
//vitex:hotpath
func (t *Table[T]) At(i int) T { return t.spine[i>>chunkBits].items[i&chunkMask] }

// Clone returns a table with the same elements that shares every chunk with
// t until its own writes copy them. O(1): the spine is copied on the first
// write.
func (t *Table[T]) Clone() Table[T] { return Table[T]{spine: t.spine, n: t.n} }

// Truncate returns the first n elements of t, n at most Len, as a table with
// t's owner: the caller replaces t with it. The last chunk keeps its length;
// what lies past n in it is never read, and Set overwrites it.
func (t *Table[T]) Truncate(n int) Table[T] {
	return Table[T]{spine: t.spine[:(n+chunkMask)>>chunkBits], n: n, owner: t.owner, ownSpine: t.ownSpine}
}

// Append sets element Len to v.
//
//vitex:cowmut writes through Set
func (t *Table[T]) Append(v T) { t.Set(t.n, v) }

// Set makes element i, at most Len, equal to v; i == Len appends. It is the
// table's one writer (Append and Delete write through it): it copies the
// spine unless t already owns it, and the chunk holding i unless t already
// owns that, so a table shared with a published epoch is never written.
//
//vitex:cowmut copies whatever t does not own before writing into it
func (t *Table[T]) Set(i int, v T) {
	if t.owner == 0 {
		t.owner = tokens.Add(1)
	}
	ci := i >> chunkBits
	if !t.ownSpine {
		spine := make([]*chunk[T], len(t.spine), max(len(t.spine)+1, cap(t.spine)))
		copy(spine, t.spine)
		t.spine, t.ownSpine = spine, true
	}
	if ci == len(t.spine) {
		t.spine = append(t.spine, &chunk[T]{owner: t.owner})
	}
	c, j := t.spine[ci], i&chunkMask
	if c.owner != t.owner {
		// Room for the element an append adds, so the copy is the only one.
		c = &chunk[T]{owner: t.owner, items: append(make([]T, 0, max(len(c.items), j+1)), c.items...)}
		t.spine[ci] = c
	}
	if j < len(c.items) {
		c.items[j] = v
	} else {
		c.items = append(c.items, v)
	}
	if i == t.n {
		t.n++
	}
}

// Delete removes element i, shifting the elements after it down by one:
// O(Len - i).
//
//vitex:cowmut writes through Set
func (t *Table[T]) Delete(i int) {
	for j := i; j+1 < t.n; j++ {
		t.Set(j, t.At(j+1))
	}
	var zero T
	t.Set(t.n-1, zero) // the table keeps no reference to what it dropped
	*t = t.Truncate(t.n - 1)
}

// From returns a table holding the elements of s.
func From[T any](s []T) Table[T] {
	var t Table[T]
	for _, v := range s {
		t.Append(v)
	}
	return t
}
