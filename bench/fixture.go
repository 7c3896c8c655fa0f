package main

import (
	"fmt"
	"runtime"
	"time"

	vitex "repro"
)

// poolDoc is one generated document with what its consumer must receive.
type poolDoc struct {
	data []byte
	ref  reference
}

// fixture is a workload set up and warmed: everything that exists before the
// first timed document.
type fixture struct {
	w       *workload
	queries []string
	pool    []poolDoc
	// live is the query whose results the consumer sees: -1 for the whole
	// set (in-library), the busiest query for a served workload, whose
	// consumer attaches to that one subscription.
	live int

	set       *vitex.QuerySet // in-library workloads
	buildTime time.Duration   // wall of vitex.NewQuerySet
	churnPool []*vitex.Query
	srv       *served // served workloads
}

// setUp generates the corpus, computes the references, builds the system
// under test, runs one warm-up pass over the pool (verified like a timed
// pass) and forces a GC. dir is where a durable broker keeps its WAL.
func setUp(w *workload, seed int64, scale float64, dir string) (*fixture, error) {
	f := &fixture{w: w, queries: w.queries(seed, scale), live: -1}
	o, err := newOracle(f.queries)
	if err != nil {
		return nil, err
	}
	if err := f.buildPool(o, seed, scale); err != nil {
		return nil, err
	}
	if w.served {
		if f.srv, err = startServed(f, dir); err != nil {
			return nil, err
		}
	} else {
		t := time.Now()
		if f.set, err = vitex.NewQuerySet(f.queries...); err != nil {
			return nil, err
		}
		f.buildTime = time.Since(t)
		if w.churnEvery > 0 {
			if err := f.prepareChurn(); err != nil {
				return nil, err
			}
		}
	}
	warm := f.run(limit{docs: len(f.pool)}, false)
	if warm.failed > 0 || warm.attempted != len(f.pool) {
		f.close()
		return nil, fmt.Errorf("%s: warm-up pass: %d of %d documents failed verification", w.name, warm.failed, warm.attempted)
	}
	runtime.GC()
	return f, nil
}

// buildPool generates poolSize documents from seed..seed+poolSize-1 and their
// references. A document on which the live query has no result cannot be
// seen by a stream consumer, so such a seed is skipped (poolSize further on).
func (f *fixture) buildPool(o *oracle, seed int64, scale float64) error {
	for i := 0; i < poolSize; i++ {
		data := f.w.doc(seed+int64(i), scale)
		ref, err := o.reference(data)
		if err != nil {
			return err
		}
		f.pool = append(f.pool, poolDoc{data: data, ref: ref})
	}
	if f.w.served {
		f.live = busiest(f.pool)
	}
	for i := range f.pool {
		d := &f.pool[i]
		for try := 1; ; try++ {
			if n, _ := d.ref.of(f.live); n > 0 {
				break
			}
			if try > 64 {
				return fmt.Errorf("%s: no document with results near seed %d", f.w.name, seed)
			}
			d.data = f.w.doc(seed+int64(i+try*poolSize), scale)
			var err error
			if d.ref, err = o.reference(d.data); err != nil {
				return err
			}
		}
	}
	return nil
}

// busiest returns the query with the most results over the pool.
func busiest(pool []poolDoc) int {
	totals := make([]int, len(pool[0].ref.counts))
	best := 0
	for _, d := range pool {
		for q, n := range d.ref.counts {
			if totals[q] += n; totals[q] > totals[best] {
				best = q
			}
		}
	}
	return best
}

// prepareChurn compiles the subscriptions the run will add and remove, and
// installs the first one in the churn slot behind the base set.
func (f *fixture) prepareChurn() error {
	for i := 0; i < 64; i++ {
		q, err := vitex.Compile(churnQuery(i))
		if err != nil {
			return err
		}
		f.churnPool = append(f.churnPool, q)
	}
	_, err := f.set.Add(f.churnPool[len(f.churnPool)-1])
	return err
}

// limit ends a run after a duration or a document count, whichever is set.
type limit struct {
	dur  time.Duration
	docs int
}

func (l limit) reached(elapsed time.Duration, docs int) bool {
	return (l.dur > 0 && elapsed >= l.dur) || (l.docs > 0 && docs >= l.docs)
}

func (f *fixture) run(l limit, traced bool) *runResult {
	if f.w.served {
		return f.srv.run(l, traced)
	}
	return f.runLibrary(l, traced)
}

func (f *fixture) close() {
	if f.srv != nil {
		f.srv.close()
	}
}
