package twigm

import (
	"fmt"
	"io"
)

// tracer renders machine transitions in a human-readable log — the
// demonstration view of the system (ViteX was presented as an ICDE demo;
// this is the textual equivalent of watching the stacks change state). It
// is enabled by Options.Trace and costs nothing when disabled (all call
// sites are nil-guarded).
type tracer struct {
	w io.Writer
	p *Program // names the nodes
}

func (tr *tracer) on() bool { return tr != nil && tr.w != nil }

func (tr *tracer) push(m *node, level int) {
	fmt.Fprintf(tr.w, "push   %-12s level=%d\n", tr.p.label(m), level)
}

func (tr *tracer) prune(m *node, level int) {
	fmt.Fprintf(tr.w, "prune  %-12s level=%d (attribute predicate already false)\n", tr.p.label(m), level)
}

func (tr *tracer) pop(m *node, e *entry) {
	state := "unsatisfied"
	if e.satisfied {
		state = "satisfied"
	}
	fmt.Fprintf(tr.w, "pop    %-12s level=%d %s flags=%b\n", tr.p.label(m), e.level, state, e.flags)
}

func (tr *tracer) satisfied(m *node, e *entry) {
	fmt.Fprintf(tr.w, "match  %-12s level=%d subquery satisfied\n", tr.p.label(m), e.level)
}

func (tr *tracer) flag(parent, child *node, level int) {
	fmt.Fprintf(tr.w, "flag   %-12s level=%d gains child %s\n", tr.p.label(parent), level, tr.p.label(child))
}

func (tr *tracer) candidate(c *candidate) {
	fmt.Fprintf(tr.w, "cand   #%d created (buffered until predicates resolve)\n", c.seq)
}

func (tr *tracer) confirm(c *candidate) {
	fmt.Fprintf(tr.w, "proven #%d is a query solution\n", c.seq)
}

func (tr *tracer) drop(c *candidate) {
	fmt.Fprintf(tr.w, "drop   #%d discarded (no pattern match can qualify it)\n", c.seq)
}

func (tr *tracer) emit(res *Result) {
	fmt.Fprintf(tr.w, "emit   #%d at event %d: %s\n", res.Seq, res.DeliveredAt, res.Value)
}
