package twigm

import (
	"sort"

	"repro/internal/sax"
)

// Collect runs the machine over a full document and returns every solution.
// It is the batch convenience API; streaming consumers should wire their
// own Options.EmitFrom and drive the Run as a sax.Handler.
func Collect(p *Program, d sax.Driver, opts Options) ([]Result, Stats, error) {
	var results []Result
	userEmit := opts.EmitFrom
	opts.EmitFrom = func(id int, res Result) error {
		results = append(results, res)
		if userEmit != nil {
			return userEmit(id, res)
		}
		return nil
	}
	run := p.Start(opts)
	if err := d.Run(run); err != nil {
		return nil, run.Stats(), err
	}
	return results, run.Stats(), nil
}

// Values extracts result values, sorted into document order (by Seq) — a
// convenience for comparing engines regardless of delivery order.
func Values(results []Result) []string {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	out := make([]string, len(sorted))
	for i, res := range sorted {
		out[i] = res.Value
	}
	return out
}
