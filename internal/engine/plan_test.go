package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/twigm"
	"repro/internal/xpath"
)

// planOf turns the shape most of this package's tests are written in — one
// twigm.Options per machine, each with its own Emit — into a Plan. The options
// may differ between machines only in Emit and Ordered, the two things a Plan
// can vary per machine. finish, given what Stream returned, yields one Stats
// per machine: what the plan reported for the machines the document woke, the
// scan's counters alone for the rest.
func planOf(opts []twigm.Options) (plan Plan, finish func(scan twigm.Stats) []twigm.Stats) {
	stats := make([]twigm.Stats, len(opts))
	woken := make([]bool, len(opts))
	emits := false
	for d, o := range opts {
		if d == 0 {
			plan.Options = o
			plan.Options.Emit = nil
		}
		plan.Options.Ordered = plan.Options.Ordered || o.Ordered
		emits = emits || o.Emit != nil
		if base := opts[0]; o.CountOnly != base.CountOnly || o.Trace != base.Trace ||
			o.DisablePrune != base.DisablePrune || o.DisableEagerPropagation != base.DisableEagerPropagation {
			panic(fmt.Sprintf("planOf: machine %d differs from machine 0 in more than Emit and Ordered", d))
		}
	}
	if plan.Options.Ordered {
		plan.Unordered = make([]bool, len(opts))
		for d, o := range opts {
			plan.Unordered[d] = !o.Ordered
		}
	}
	if emits {
		plan.Options.EmitFrom = func(d int, r twigm.Result) error {
			if opts[d].Emit == nil {
				return nil
			}
			return opts[d].Emit(r)
		}
	}
	plan.Stats = func(d int, st twigm.Stats) {
		if woken[d] {
			panic(fmt.Sprintf("planOf: machine %d reported twice", d))
		}
		woken[d], stats[d] = true, st
	}
	return plan, func(scan twigm.Stats) []twigm.Stats {
		for d := range stats {
			if !woken[d] {
				stats[d] = scan
			}
		}
		return stats
	}
}

// streamOpts evaluates s with one twigm.Options per machine (see planOf),
// serially (workers <= 1) or sharded, and returns one Stats per machine.
func streamOpts(ctx context.Context, s Snapshot, r io.Reader, useStd bool, opts []twigm.Options, workers int) ([]twigm.Stats, error) {
	if len(opts) != s.Len() {
		return nil, fmt.Errorf("streamOpts: %d option sets for %d machines", len(opts), s.Len())
	}
	plan, finish := planOf(opts)
	var scan twigm.Stats
	var err error
	if workers > 1 {
		scan, err = s.StreamParallel(ctx, r, useStd, plan, workers)
	} else {
		scan, err = s.Stream(ctx, r, useStd, plan)
	}
	return finish(scan), err
}

// TestPlanEmitIsNotCalled: a Plan's machines report through Options.EmitFrom.
// Options.Emit, the hook of a Run driven on its own, is never handed to them —
// serially it would be called without the machine's index, sharded from the
// worker goroutines.
func TestPlanEmitIsNotCalled(t *testing.T) {
	e, err := New(xpath.MustParse("//a"), xpath.MustParse("//b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		got := 0
		plan := Plan{Options: twigm.Options{
			Emit:     func(twigm.Result) error { t.Error("Options.Emit called"); return nil },
			EmitFrom: func(int, twigm.Result) error { got++; return nil },
		}}
		if _, err := e.Snapshot().StreamParallel(context.Background(), strings.NewReader("<r><a/><b/></r>"), false, plan, workers); err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Fatalf("workers=%d: EmitFrom saw %d results, want 2", workers, got)
		}
	}
}
