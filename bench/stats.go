package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule of the benchmark: a percentile is quoted
// only when at least this many samples lie beyond it.
const minBeyond = 10

// supportedPercentile returns the highest percentile <= want that has at
// least minBeyond of n samples beyond it (p99 needs n >= 1000). With fewer
// than 2*minBeyond samples nothing above the median is supported.
func supportedPercentile(n int, want float64) float64 {
	if n < 2*minBeyond {
		return math.Min(want, 0.5)
	}
	return math.Min(want, 1-float64(minBeyond)/float64(n))
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantileOf sorts a copy of v and returns the supported percentile nearest
// to want, together with the percentile actually used.
func quantileOf(v []float64, want float64) (value, used float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	used = supportedPercentile(len(s), want)
	return percentile(s, used), used
}

func median(v []float64) float64 {
	m, _ := quantileOf(v, 0.5)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// spread is an end-to-end metric of one run: the median of the run's
// segments, which a burst of interference on the shared baseline host moves
// only once it covers half the run. The best and worst segment and the figure
// pooled over the whole run are printed and recorded beside it.
type spread struct {
	Value  float64 `json:"value"`
	Best   float64 `json:"best_segment"`
	Worst  float64 `json:"worst_segment"`
	Pooled float64 `json:"pooled"`
}

// overRun summarises per-segment values of a metric for which lower (or
// higher) is better.
func overRun(segments []float64, pooled float64, lowerIsBetter bool) spread {
	best, worst := minMax(segments)
	if !lowerIsBetter {
		best, worst = worst, best
	}
	return spread{Value: median(segments), Best: best, Worst: worst, Pooled: pooled}
}

// overSegments evaluates f on each of the run's nSegments equal slices of
// docs and returns the per-segment values.
func overSegments(docs []docTiming, f func(seg []docTiming, from time.Duration) float64) []float64 {
	out := make([]float64, 0, nSegments)
	from := time.Duration(0)
	for k := 0; k < nSegments; k++ {
		lo, hi := k*len(docs)/nSegments, (k+1)*len(docs)/nSegments
		if lo == hi {
			continue
		}
		out = append(out, f(docs[lo:hi], from))
		from = docs[hi-1].last
	}
	return out
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// relDiff is how much worse b is than a, as a share of a, for a metric where
// lower (or higher) is better. Negative means b is better.
func relDiff(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerIsBetter {
		return (b - a) / a
	}
	return (a - b) / a
}

// span is one traced interval: a call the harness made into a layer, or the
// whole journey of one document (the root, parent -1).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Doc    int    `json:"doc"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
