package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/twigm"
)

// planOf turns the shape most of this package's tests are written in — one
// twigm.Options per machine, each with its own EmitFrom — into a Plan. The
// options may differ between machines only in EmitFrom and Ordered, the two
// things a Plan can vary per machine. finish, given what Stream returned,
// yields one Stats per machine: the row the plan's Rows filled for it, which
// for a machine the document did not wake holds the scan's counters alone.
func planOf(opts []twigm.Options) (plan Plan, finish func(scan twigm.Stats) []twigm.Stats) {
	rows := &machineRows{rows: make([]twigm.Stats, len(opts))}
	emits := false
	for d, o := range opts {
		if d == 0 {
			plan.Options = o
			plan.Options.EmitFrom = nil
		}
		plan.Options.Ordered = plan.Options.Ordered || o.Ordered
		emits = emits || o.EmitFrom != nil
		if base := opts[0]; o.CountOnly != base.CountOnly || o.Trace != base.Trace ||
			o.DisablePrune != base.DisablePrune || o.DisableEagerPropagation != base.DisableEagerPropagation {
			panic(fmt.Sprintf("planOf: machine %d differs from machine 0 in more than EmitFrom and Ordered", d))
		}
	}
	if plan.Options.Ordered {
		plan.Unordered = func(d int) bool { return !opts[d].Ordered }
	}
	if emits {
		plan.Options.EmitFrom = func(d int, r twigm.Result) error {
			if opts[d].EmitFrom == nil {
				return nil
			}
			return opts[d].EmitFrom(d, r)
		}
	}
	plan.Rows = rows
	return plan, func(twigm.Stats) []twigm.Stats {
		if rows.made != 1 {
			panic(fmt.Sprintf("planOf: rows made %d times", rows.made))
		}
		return rows.rows
	}
}

// machineRows is a Rows of one row per machine, which a test reads machine by
// machine. made counts the calls of Make.
type machineRows struct {
	rows []twigm.Stats
	made int
}

func (m *machineRows) Make() []twigm.Stats {
	m.made++
	return m.rows
}

func (*machineRows) Row(machine int) int { return machine }

// streamOpts evaluates s with one twigm.Options per machine (see planOf),
// and returns one Stats per machine.
func streamOpts(ctx context.Context, s Snapshot, r io.Reader, opts []twigm.Options) ([]twigm.Stats, error) {
	if len(opts) != s.Len() {
		return nil, fmt.Errorf("streamOpts: %d option sets for %d machines", len(opts), s.Len())
	}
	plan, finish := planOf(opts)
	scan, err := s.Stream(ctx, r, plan)
	return finish(scan), err
}

// streamAll evaluates the engine over doc collecting full results per
// machine.
func streamAll(t *testing.T, e *Engine, doc string, base twigm.Options) ([][]twigm.Result, []twigm.Stats, error) {
	t.Helper()
	out := make([][]twigm.Result, e.Len())
	opts := make([]twigm.Options, e.Len())
	for i := range opts {
		idx := i
		opts[i] = base
		opts[i].EmitFrom = func(_ int, r twigm.Result) error {
			out[idx] = append(out[idx], r)
			return nil
		}
	}
	stats, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(doc), opts)
	return out, stats, err
}
