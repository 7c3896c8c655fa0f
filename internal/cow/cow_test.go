package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesSlices drives random edits through a chain of clones and
// checks, after every edit, that each table ever published still reads as
// the slice model it was published with: no write through a clone reaches a
// table that was cloned from.
func TestTableMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cur Table[int]
	var model []int
	type published struct {
		tab   Table[int]
		model []int
	}
	var history []published
	for step := 0; step < 400; step++ {
		next := cur.Clone()
		m := slices.Clone(model)
		for range rng.Intn(6) + 1 {
			switch op := rng.Intn(3); {
			case op == 0 || len(m) == 0:
				v := rng.Int()
				next.Append(v)
				m = append(m, v)
			case op == 1:
				i, v := rng.Intn(len(m)), rng.Int()
				next.Set(i, v)
				m[i] = v
			default:
				i := rng.Intn(len(m))
				next.Delete(i)
				m = slices.Delete(m, i, i+1)
			}
		}
		history = append(history, published{cur, model})
		cur, model = next, m
		for h, p := range append(history, published{cur, model}) {
			if got := elements(&p.tab); !slices.Equal(got, p.model) {
				t.Fatalf("step %d: table %d reads %v, want %v", step, h, got, p.model)
			}
		}
	}
}

// elements returns t's elements in order.
func elements[T any](t *Table[T]) []T {
	var out []T
	for i := range t.Len() {
		out = append(out, t.At(i))
	}
	return out
}

// TestCloneCopiesOnlyTouchedChunks pins the cost model: a write to a clone of
// a large table allocates one spine and one chunk (its header and its
// elements), whatever the table's size.
func TestCloneCopiesOnlyTouchedChunks(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		base := From(make([]int64, n))
		allocs := testing.AllocsPerRun(20, func() {
			c := base.Clone()
			c.Set(n/2, 7)
			c.Set(n/2+1, 8)
		})
		if allocs != 3 {
			t.Errorf("n=%d: two writes into one chunk of a clone allocated %v times, want 3 (spine and chunk)", n, allocs)
		}
		if base.At(n/2) != 0 {
			t.Fatalf("n=%d: a clone's write reached the original", n)
		}
		// An append into the short last chunk copies it once, with room for
		// the new element.
		allocs = testing.AllocsPerRun(20, func() {
			c := base.Clone()
			c.Append(9)
		})
		if allocs != 3 {
			t.Errorf("n=%d: an append to a clone allocated %v times, want 3 (spine and chunk)", n, allocs)
		}
	}
}
