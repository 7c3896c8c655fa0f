// Package metrics provides the measurement harness for the experiments in
// EXPERIMENTS.md: live-heap sampling during a stream evaluation (the
// paper's "memory stable at 1MB" claim, E2), wall-time accounting with
// parse-share breakdown (E1), least-squares fits for the scaling
// experiments (E3/E4/E7), and fixed-width table rendering for the
// cmd/vitexbench reports.
package metrics

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/sax"
)

// HeapSample is one observation of live heap during a run.
type HeapSample struct {
	Events    int64
	HeapAlloc uint64
}

// HeapSampler wraps a sax.Handler and samples runtime heap usage every
// Every events, forwarding the stream to it one event at a time so each
// sample sits at an exact event count. Sampling reads runtime.MemStats
// without forcing GC, so the numbers include garbage awaiting collection;
// the Baseline (captured at Wrap time, after a forced GC) is subtracted to
// approximate engine-attributable memory.
type HeapSampler struct {
	// Every controls sampling frequency in events (default 10000).
	Every int64

	Baseline uint64
	Samples  []HeapSample
	Peak     uint64

	events int64
	inner  sax.Handler
}

// Wrap forces a GC, records the baseline, and returns a handler that
// samples around inner.
func (h *HeapSampler) Wrap(inner sax.Handler) sax.Handler {
	if h.Every <= 0 {
		h.Every = 10000
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.Baseline = ms.HeapAlloc
	h.inner = inner
	return h
}

// HandleBatch implements sax.Handler.
func (h *HeapSampler) HandleBatch(evs []sax.Event) error {
	for i := range evs {
		h.sample(&evs[i])
		if err := h.inner.HandleBatch(evs[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

func (h *HeapSampler) sample(ev *sax.Event) {
	h.events++
	if h.events%h.Every == 0 || ev.Kind == sax.EndDocument {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live := uint64(0)
		if ms.HeapAlloc > h.Baseline {
			live = ms.HeapAlloc - h.Baseline
		}
		h.Samples = append(h.Samples, HeapSample{Events: h.events, HeapAlloc: live})
		if live > h.Peak {
			h.Peak = live
		}
	}
}

// Timer measures wall time of a phase.
type Timer struct{ start time.Time }

// StartTimer begins timing.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the wall time since start.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// Fit is a least-squares linear fit y = A + B*x with goodness R2.
type Fit struct {
	A, B, R2 float64
}

// LinearFit fits y against x. It panics if the slices differ in length and
// returns a zero fit for fewer than two points.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) {
		panic("metrics: LinearFit length mismatch")
	}
	n := float64(len(xs))
	if n < 2 {
		return Fit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	// R² from explained variance.
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		d := ys[i] - (a + b*xs[i])
		ssRes += d * d
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{A: a, B: b, R2: r2}
}

// Table renders fixed-width experiment tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Bytes formats a byte count in human units.
func Bytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Throughput formats bytes/duration as MB/s.
func Throughput(bytes int64, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fMB/s", float64(bytes)/d.Seconds()/1e6)
}
