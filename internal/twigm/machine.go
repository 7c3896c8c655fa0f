package twigm

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/sax"
	"repro/internal/xpath"
)

// retained clones an event-derived string (text content, an attribute value)
// a candidate is about to keep: event strings die when the delivery returns
// (the sax.Handler lifetime rule), a candidate's value outlives it, and
// Result.Value carries it out of the machine entirely. Comparisons and
// recorded fragments never retain the event's string. Outlined so the hot
// handlers themselves stay allocation-free.
func retained(v string) string { return strings.Clone(v) }

// Result is one query solution, delivered through Options.EmitFrom.
type Result struct {
	// Seq is the creation order of the candidate, which equals the
	// document order of the result node.
	Seq int64
	// NodeOffset is a document-order identity for the result node,
	// derived from the byte offset of the token that produced it
	// (attributes use their owner's offset plus the attribute index, a
	// position inside the owner's tag, so offsets stay unique and
	// document-ordered across result kinds). Two results from different
	// machines over the same stream refer to the same node iff their
	// NodeOffsets are equal — the identity that union evaluation
	// deduplicates on.
	NodeOffset int64
	// Value is the serialized result: the XML fragment for element
	// results, the attribute value for attribute results, the text
	// content for text() results. Empty in CountOnly mode.
	Value string
	// ConfirmedAt and DeliveredAt are the indices of the SAX events at
	// which the solution was proven (all predicates satisfied up to the
	// query root) and at which it was handed to EmitFrom. Their difference,
	// and their distance from the end of the stream, quantify the
	// incremental-delivery behaviour of §1 requirement 2 (experiment E8).
	ConfirmedAt int64
	DeliveredAt int64
}

// Options configures a Run.
type Options struct {
	// EmitFrom receives each query solution together with ID: an engine
	// evaluating many runs into one consumer gives them all the same
	// function and tells them apart by ID, so no run owns a closure. A nil
	// EmitFrom just counts results. Returning an error aborts the stream.
	EmitFrom func(id int, r Result) error
	ID       int
	// CountOnly disables fragment recording: results are detected and
	// counted, but Value stays empty. This is the configuration for the
	// paper's memory experiment (E2), where only @id values are emitted.
	CountOnly bool
	// Ordered delivers results in document order. Without it, results
	// are delivered the moment they are proven (confirmation order),
	// which may run ahead of document order when an early candidate's
	// predicates resolve late.
	Ordered bool
	// DisablePrune turns off the push-time pruning of entries whose
	// attribute predicates already failed (ablation benchmark).
	DisablePrune bool
	// DisableEagerPropagation delays satisfaction propagation to
	// end-element time even when an entry's predicates are already
	// satisfied while it is open (ablation benchmark; increases result
	// latency but must not change results).
	DisableEagerPropagation bool
	// Trace, when non-nil, receives a human-readable log of every
	// machine transition (pushes, pops, flag propagations, candidate
	// lifecycle) — the demonstration view of the system. Evaluation with
	// tracing is substantially slower; leave nil in production. A run
	// evaluating a value group (BindGroup) logs each transition once for all
	// of its members — match and proven when some member's literal matched,
	// drop otherwise — and one emit line per result it delivers to a member.
	Trace io.Writer
}

// Stats are live counters of a Run, exposing the quantities the paper's
// claims are stated in terms of.
type Stats struct {
	Events   int64 // SAX events processed
	Elements int64 // start-element events
	Pushes   int64 // stack entries created
	Pops     int64 // stack entries removed
	// FlagProps counts flag propagations to parent entries: the unit of
	// work of the compact encoding (bounded by |D|·|Q|·depth).
	FlagProps int64
	// CandMoves counts candidate hand-offs between entries.
	CandMoves          int64
	CandidatesCreated  int64
	CandidatesEmitted  int64
	CandidatesDropped  int64
	PrunedPushes       int64
	PeakStackEntries   int // high-water mark of live entries across all stacks
	PeakLiveCandidates int
	// PeakBufferedBytes is the high-water mark of the bytes this machine's
	// own open fragments spanned: from the start of its first open
	// fragment to the last event serialized while one was open. The
	// recorder is shared with every machine its driver evaluates, so the
	// bytes it holds are at most the largest of these, not their sum.
	PeakBufferedBytes int
	MaxDepth          int
}

// candState tracks a candidate's lifecycle.
type candState uint8

const (
	candPending candState = iota
	candConfirmed
	candDropped
)

// candidate is a potential query solution: an XML node that matched the
// whole spine structurally, buffered until its ancestors' predicates are
// decided (§1: "we need to record them"). One candidate exists per result
// node regardless of how many pattern matches involve it; entries hold
// references, and the confirmed latch makes emission exactly-once.
// Candidates are allocated from the Run's block arena and reclaimed
// wholesale by Reset — by end of document every candidate has resolved.
type candidate struct {
	seq    int64
	offset int64 // document-order node identity (Result.NodeOffset)
	refs   int
	state  candState
	open   bool // element still being recorded (a Run.active slot exists)
	// spanned: the element's fragment is complete as the recorder's
	// buf[start:end] and not yet made into value (Recorder.fragment).
	spanned bool
	// bucket is the literal a value group's candidate was confirmed for:
	// the bucket whose members it is emitted to (BindGroup).
	bucket      int32
	start, end  int
	value       string
	confirmedAt int64
}

// entry is one stack entry: an open XML element that path-matches the
// machine node, with the paper's triplet (level, match-status bitset,
// candidate solutions). Popped entries keep their slice capacity inside the
// stack's backing array, so steady-state pushes allocate nothing.
type entry struct {
	level     int
	flags     uint64
	satisfied bool
	cands     []*candidate
	textBuf   []byte // string-value accumulator (valueNodes only)
}

// candBlockSize is the arena granularity for candidate allocation.
const candBlockSize = 64

// candArena allocates candidates in blocks that are retained across streams:
// by end of document every candidate has resolved, so reset reclaims them
// wholesale, and a long-lived evaluator reaches a steady state where no
// candidate allocation happens at all.
type candArena struct {
	blocks    [][]candidate
	idx, used int // blocks[idx][used] is the next free slot
}

func (a *candArena) reset() { a.idx, a.used = 0, 0 }

// next returns a zeroed candidate.
func (a *candArena) next() *candidate {
	if a.idx == len(a.blocks) {
		a.blocks = append(a.blocks, make([]candidate, candBlockSize))
	}
	c := &a.blocks[a.idx][a.used]
	a.used++
	if a.used == candBlockSize {
		a.idx++
		a.used = 0
	}
	*c = candidate{}
	return c
}

// Run is a TwigM machine instance processing one XML stream. It implements
// sax.Handler. Create with Program.Start; Reset prepares the same Run (with
// all of its warmed-up stacks, arenas and buffers) for another stream.
//
//vitex:pooled
type Run struct {
	prog *Program //vitex:keep compiled program identity, immutable
	opts Options

	stacks  [][]entry // indexed by node id; nil for attr/text nodes
	nextSeq int64
	count   int64
	stats   Stats

	liveEntries int
	// textEntries counts the live entries of nodes that read text
	// (WantsText).
	textEntries int
	liveCands   int
	cands       candArena

	// The run's fragments are spans of its driver's recorder (BindRecorder),
	// or of its own, made when HandleBatch first drives it.
	fragmentSet
	own     *Recorder
	ordered orderedBuf
	trace   *tracer
	done    bool
	failed  error

	// anchor is the shared prefix stack an anchored run's root node checks
	// against (see shared.go); nil for unanchored programs. Bound per
	// stream via BindAnchor, it survives Reset.
	anchor *AnchorStack //vitex:keep rebound per stream via BindAnchor, survives Reset by contract

	// group is the value group the run evaluates for all of its members, nil
	// for a run of its own query; hits counts, by bucket, the candidates
	// confirmed for its members, and unordered picks the members that deliver
	// in confirmation order under Ordered (BindGroup, valuegroup.go).
	group     *ValueGroup
	hits      []int64
	unordered func(id int) bool
}

// Start instantiates the machine for a new stream.
func (p *Program) Start(opts Options) *Run {
	r := &Run{prog: p}
	r.stacks = make([][]entry, len(p.nodes))
	r.applyOptions(opts)
	return r
}

// Program returns the program the run was started from.
func (r *Run) Program() *Program { return r.prog }

// Reset prepares the Run for another stream with fresh options, keeping
// every warmed-up allocation: stack backing arrays, per-entry candidate and
// string-value buffers, the candidate arena, its own recorder's buffer and the
// ordered-delivery window. The run records into its own recorder, if it has
// one, until a driver binds another (BindRecorder).
func (r *Run) Reset(opts Options) {
	for i := range r.stacks {
		r.stacks[i] = r.stacks[i][:0]
	}
	r.nextSeq = 0
	r.count = 0
	r.stats = Stats{}
	r.liveEntries = 0
	r.textEntries = 0
	r.liveCands = 0
	r.cands.reset()
	if r.own != nil {
		r.own.Reset()
	}
	r.fragmentSet.reset(r.own)
	r.ordered.reset()
	r.done = false
	r.failed = nil
	r.group, r.unordered = nil, nil
	r.hits = r.hits[:0]
	r.applyOptions(opts)
}

func (r *Run) applyOptions(opts Options) {
	r.opts = opts
	r.trace = nil
	if opts.Trace != nil {
		r.trace = &tracer{w: opts.Trace, p: r.prog}
	}
}

// Detach drops what the Run holds of its stream's consumer — the emit hooks
// and the trace writer — and keeps every warmed-up allocation. A pooled run
// may sit idle for any number of streams before its next Reset; detached, it
// pins nothing of the stream that last used it.
func (r *Run) Detach() {
	r.opts.EmitFrom, r.opts.Trace = nil, nil
	r.trace = nil
}

// Count returns the number of solutions delivered so far.
func (r *Run) Count() int64 { return r.count }

// Stats returns a snapshot of the run's counters.
func (r *Run) Stats() Stats {
	st := r.stats
	if len(r.active) > 0 {
		r.notePeak(&st)
	}
	return st
}

// BindRecorder points the run at the recorder its driver serializes the
// document into, shared with every other run the driver delivers to. A
// driver that calls HandleRouted must bind one. Reset points the run back at
// its own.
func (r *Run) BindRecorder(rc *Recorder) { r.rec = rc }

// recordAlone gives a run driven directly a recorder of its own. Runs the
// engine drives record into their router's and never need one.
func (r *Run) recordAlone() {
	r.own = new(Recorder)
	r.rec = r.own
}

// ---- routing hooks (consumed by internal/engine) ----

// HandleRouted is the entry point of routed dispatch, which skips events a
// machine is not subscribed to and itself drives the recorder it bound the
// run to (BindRecorder): it delivers ev with the run's event clock pinned to
// the shared scan's 1-based index for this event, so ConfirmedAt/DeliveredAt — and the DeliveredAt stamped on results
// flushed by the ordered re-sequencer during this delivery — are identical
// to a run that saw every event.
//
//vitex:hotpath
func (r *Run) HandleRouted(ev *sax.Event, eventIndex int64) error {
	r.stats.Events = eventIndex - 1
	return r.handle(ev)
}

// LiveEntries reports the number of open stack entries. Only a start tag
// pushes, at its own depth, and an end tag pops exactly the entries pushed at
// its element's start tag, so an end tag matters only to the machines whose
// live entries its start tag raised; an open fragment always has the live
// entry of its element beneath it.
//
//vitex:hotpath
func (r *Run) LiveEntries() int { return r.liveEntries }

// WantsText reports whether the next text event could matter to this
// machine: a string-value accumulator is open, or a text() node's parent (or
// the document root, for absolute text queries) has a live entry. Fragment
// text is the recorder's, not the machine's. It only changes state inside a
// delivery, so a router may cache it between deliveries.
//
//vitex:hotpath
func (r *Run) WantsText() bool { return r.textEntries > 0 || r.prog.rootText }

// ErrNoNameID fails an evaluation that is handed a start tag, or an
// attribute, without its name ID (sax.SymNone): its front-end was not built
// on the program's symbol table (xmlscan.NewScannerWith(r, p.Symbols())).
// Machines dispatch by name ID only, so such a tag could match nothing.
var ErrNoNameID = errors.New("twigm: start tag without a name ID (build the front-end on the program's symbol table)")

// CheckNameIDs returns an error wrapping ErrNoNameID when start tag ev, or
// one of its attributes, carries no name ID. The entry points of dispatch
// call it, Run.HandleBatch and the engine's router; the machines trust them.
//
//vitex:hotpath
func CheckNameIDs(ev *sax.Event) error {
	if ev.NameID == sax.SymNone {
		return noNameID(ev.Name, "")
	}
	for i := range ev.Attrs {
		if ev.Attrs[i].NameID == sax.SymNone {
			return noNameID(ev.Name, ev.Attrs[i].Name)
		}
	}
	return nil
}

// noNameID builds CheckNameIDs' error, off its hot path.
func noNameID(elem, attr string) error {
	if attr != "" {
		return fmt.Errorf("%w: attribute %s of <%s>", ErrNoNameID, attr, elem)
	}
	return fmt.Errorf("%w: <%s>", ErrNoNameID, elem)
}

// HandleBatch implements sax.Handler: a Run driven directly by a front-end
// (no engine in between) sees every event, counts them itself and drives its
// recorder exactly as the engine's router drives a shared one. It refuses a
// start tag without its name ID (ErrNoNameID).
//
//vitex:hotpath
func (r *Run) HandleBatch(evs []sax.Event) error {
	if r.rec == nil {
		r.recordAlone()
	}
	for i := range evs {
		ev := &evs[i]
		if ev.Kind == sax.StartElement {
			if err := CheckNameIDs(ev); err != nil {
				return err
			}
		}
		r.rec.Before(ev)
		if err := r.handle(ev); err != nil {
			return err
		}
		r.rec.After(ev)
	}
	return nil
}

// handle advances the machine by one event.
//
//vitex:hotpath
func (r *Run) handle(ev *sax.Event) error {
	if r.failed != nil {
		return r.failed
	}
	r.stats.Events++
	switch ev.Kind {
	case sax.StartElement:
		r.startElement(ev)
	case sax.EndElement:
		r.endElement(ev)
	case sax.Text:
		r.text(ev)
	case sax.EndDocument:
		r.endDocument()
	}
	return r.failed
}

// fail records a terminal error (emit callback failure or internal
// invariant violation).
func (r *Run) fail(err error) {
	if r.failed == nil {
		r.failed = err
	}
}

// ---- event dispatch ----

// attrMatches reports whether attribute a is one machine node m names.
// Namespace declarations (xmlns, xmlns:p) never match: they are namespace
// machinery, not data.
//
//vitex:hotpath
func (p *Program) attrMatches(a *sax.Attr, m *node) bool {
	if a.IsNamespaceDecl() || a.NameID != m.nameID {
		return false
	}
	return m.prefix.n == 0 || p.str(m.prefix) == a.Prefix
}

// elemNodes returns the ids of the element machine nodes the event's local
// name dispatches to.
//
//vitex:hotpath
func (r *Run) elemNodes(ev *sax.Event) []int32 {
	return r.prog.lookup(&r.prog.elems, ev.NameID)
}

// ---- event processing ----

//vitex:hotpath
func (r *Run) startElement(ev *sax.Event) {
	r.stats.Elements++
	if ev.Depth > r.stats.MaxDepth {
		r.stats.MaxDepth = ev.Depth
	}
	p := r.prog
	named, wild := r.elemNodes(ev), p.list(p.wildElems)
	// Phase 1: push entries, parents never depend on same-event pushes
	// (axis checks use strict level inequalities), so list order is fine.
	for _, id := range named {
		r.tryPush(&p.nodes[id], ev)
	}
	for _, id := range wild {
		r.tryPush(&p.nodes[id], ev)
	}
	// Phase 2: attribute machine nodes. Attributes of this element can
	// satisfy attribute query nodes whose parent has a compatible entry
	// — including the entries just pushed (child axis: the owner
	// element itself; descendant axis: self-or-ancestor owners).
	for ai := range ev.Attrs {
		a := &ev.Attrs[ai]
		for _, mi := range p.lookup(&p.attrs, a.NameID) {
			if m := &p.nodes[mi]; p.attrMatches(a, m) {
				r.attrEvent(m, a.Value, ai, ev)
			}
		}
	}
	// Phase 3: initial satisfaction checks for entries pushed this event
	// (their flags may already be complete: leaf nodes, attribute-only
	// predicates).
	for _, id := range named {
		r.checkTop(&p.nodes[id], ev.Depth)
	}
	for _, id := range wild {
		r.checkTop(&p.nodes[id], ev.Depth)
	}
}

// tryPush pushes an entry for element machine node m, which the event's
// local name dispatched to, if the event satisfies m's prefix and axis.
//
//vitex:hotpath
func (r *Run) tryPush(m *node, ev *sax.Event) {
	if m.prefix.n > 0 && r.prog.str(m.prefix) != ev.Prefix {
		return
	}
	d := ev.Depth
	if m.parent < 0 {
		if r.prog.anchored {
			// Axis from the shared prefix: an axis-compatible open trie
			// entry must exist (the trie pushed this event's entries
			// before any machine delivery).
			if !r.anchor.CompatElem(m.axis, d) {
				return
			}
		} else if m.axis == xpath.Child && d != 1 {
			// Axis from the document node.
			return
		}
	} else {
		if !r.parentCompatExists(m, d) {
			return
		}
	}
	if m.prunable && !r.opts.DisablePrune {
		// Child-axis attribute predicates are decidable now; skip the
		// push when the condition is already dead (the entry could
		// never be satisfied, and descendants lose nothing: any
		// lower compatible entries remain available to them).
		flags := r.attrFlagsAtPush(m, ev)
		if r.prog.deadAtPush(&m.cond, flags) {
			r.stats.PrunedPushes++
			if r.trace.on() {
				r.trace.prune(m, d)
			}
			return
		}
	}
	s := r.stacks[m.id]
	if len(s) < cap(s) {
		// Reuse the popped slot in place, keeping its cands and textBuf
		// backing arrays.
		s = s[:len(s)+1]
		e := &s[len(s)-1]
		e.level = d
		e.flags = 0
		e.satisfied = false
		e.cands = e.cands[:0]
		e.textBuf = e.textBuf[:0]
	} else {
		s = append(s, entry{level: d})
	}
	r.stacks[m.id] = s
	r.stats.Pushes++
	if r.trace.on() {
		r.trace.push(m, d)
	}
	if m.readsText {
		r.textEntries++
	}
	r.liveEntries++
	if r.liveEntries > r.stats.PeakStackEntries {
		r.stats.PeakStackEntries = r.liveEntries
	}
	if m.isOutput {
		// Every structural match of the output path becomes a
		// candidate solution, parked on its own entry until this
		// node's predicates resolve.
		c := r.newCandidate(ev.Offset)
		r.record(c, d)
		top := &r.stacks[m.id][len(r.stacks[m.id])-1]
		top.cands = append(top.cands, c)
		c.refs++
	}
}

// attrFlagsAtPush computes the flag bits of child-axis attribute children
// given this event's attributes (used for pruning; the attrEvent phase sets
// the same bits on the pushed entry).
//
//vitex:hotpath
func (r *Run) attrFlagsAtPush(m *node, ev *sax.Event) uint64 {
	p := r.prog
	var flags uint64
	for _, ci := range p.list(m.children) {
		c := &p.nodes[ci]
		if c.kind != xpath.Attribute || c.axis != xpath.Child {
			continue
		}
		for ai := range ev.Attrs {
			a := &ev.Attrs[ai]
			if p.attrMatches(a, c) {
				if p.cmpOK(c, a.Value) {
					flags |= 1 << uint(c.childIdx)
				}
				break
			}
		}
	}
	return flags
}

// cmpOK evaluates an attribute or text machine node's inline comparison.
//
//vitex:hotpath
func (p *Program) cmpOK(m *node, value string) bool {
	return m.cond.op != condSelf || p.compare(&m.cond, value)
}

// parentCompatExists reports whether the parent stack holds an entry
// axis-compatible with an element at depth d. Open entries in a stack have
// strictly increasing levels and are all ancestors of the current parse
// point, so level arithmetic is sound.
//
//vitex:hotpath
func (r *Run) parentCompatExists(m *node, d int) bool {
	s := r.stacks[m.parent]
	if len(s) == 0 {
		return false
	}
	if m.axis == xpath.Descendant {
		return s[0].level < d
	}
	// Child axis: an entry at exactly d-1 is the top entry or the one
	// just below a same-event top.
	for i := len(s) - 1; i >= 0 && s[i].level >= d-1; i-- {
		if s[i].level == d-1 {
			return true
		}
	}
	return false
}

// attrEvent handles one attribute of the current start-element against one
// attribute machine node: the attribute node is instantaneously satisfied
// (its comparison is final), so it immediately propagates its flag — and its
// candidate, if it is the output node — to all compatible parent entries.
//
//vitex:hotpath
func (r *Run) attrEvent(m *node, value string, attrIdx int, ev *sax.Event) {
	if !r.prog.cmpOK(m, value) {
		return
	}
	d := ev.Depth
	if m.parent < 0 {
		if r.prog.anchored {
			// Residual '@a' anchored at the shared prefix. Seq parity with
			// the unshared machine requires creating the candidate for
			// every matching attribute — the unshared machine allocates
			// one and only then discovers no axis-compatible prefix entry
			// exists (propagate finds nothing, the candidate drops,
			// consuming a Seq number). Confirmation needs an open trie
			// entry for the owner element (child axis) or a
			// self-or-ancestor owner (descendant); a residual root
			// attribute is always the output node (attributes end paths).
			if m.isOutput {
				c := r.newCandidate(ev.Offset + 1 + int64(attrIdx))
				c.value = retained(value)
				if r.anchor.CompatAttr(m.axis, d) {
					r.confirm(c)
				}
				r.resolveIfDead(c)
			}
			return
		}
		if m.axis == xpath.Child {
			// Query of the form /@a, which never matches: the document
			// node has no attributes ('//@a' descends).
			return
		}
		if m.isOutput {
			c := r.newCandidate(ev.Offset + 1 + int64(attrIdx))
			c.value = retained(value)
			r.confirm(c)
			r.resolveIfDead(c)
		}
		return
	}
	var c *candidate
	if m.isOutput {
		c = r.newCandidate(ev.Offset + 1 + int64(attrIdx))
		c.value = retained(value)
	}
	r.propagate(m, d, c)
	if c != nil {
		r.resolveIfDead(c)
	}
}

// text handles a character-data event: it extends the string-values of open
// value-carrying entries, and matches text() machine nodes (each maximal
// run is one text node; comparisons on runs are final immediately).
//
//vitex:hotpath
func (r *Run) text(ev *sax.Event) {
	p := r.prog
	for _, id := range p.list(p.valueNodes) {
		s := r.stacks[id]
		for i := range s {
			s[i].textBuf = append(s[i].textBuf, ev.Text...)
		}
	}
	for _, id := range p.list(p.textNodes) {
		m := &p.nodes[id]
		if !p.cmpOK(m, ev.Text) {
			continue
		}
		if m.parent < 0 {
			if r.prog.anchored {
				// Residual 'text()' anchored at the shared prefix. The
				// unshared machine sees text only while a prefix entry is
				// open (the engine's WantsText gate) and then creates a
				// candidate unconditionally, dropping it when no entry is
				// axis-compatible; Seq parity requires reproducing both
				// steps against the trie stack. A residual root text()
				// is always the output node (text() ends paths).
				if m.isOutput && r.anchor.Open() {
					c := r.newCandidate(ev.Offset)
					c.value = retained(ev.Text)
					if r.anchor.CompatElem(m.axis, ev.Depth) {
						r.confirm(c)
					}
					r.resolveIfDead(c)
				}
				continue
			}
			// //text(): every text node is a solution.
			if m.axis == xpath.Descendant && m.isOutput {
				c := r.newCandidate(ev.Offset)
				c.value = retained(ev.Text)
				r.confirm(c)
				r.resolveIfDead(c)
			}
			continue
		}
		var c *candidate
		if m.isOutput {
			c = r.newCandidate(ev.Offset)
			c.value = retained(ev.Text)
		}
		r.propagate(m, ev.Depth, c)
		if c != nil {
			r.resolveIfDead(c)
		}
	}
}

//vitex:hotpath
func (r *Run) endElement(ev *sax.Event) {
	// Fragments first: candidates rooted at this element must be complete
	// before pop-time satisfaction can deliver them.
	if len(r.active) > 0 {
		r.closeFragments(ev.Depth)
	}
	d := ev.Depth
	// Process children before parents (reverse topological id order) so
	// pop-time satisfactions propagate to parent entries that pop in
	// this same event... parent entries popping now are at level d and
	// are never axis-compatible targets of a level-d child anyway; the
	// order is for clarity.
	p := r.prog
	for i := len(p.nodes) - 1; i >= 0; i-- {
		m := &p.nodes[i]
		if m.kind != xpath.Element {
			continue
		}
		s := r.stacks[m.id]
		if len(s) == 0 || s[len(s)-1].level != d {
			continue
		}
		e := &s[len(s)-1]
		if !e.satisfied {
			// Finalize: self-comparisons now have the complete
			// string-value. A group's is looked up among its literals.
			if r.group != nil && r.selectBucket(e) || r.group == nil && p.eval(&m.cond, e.flags, e, true) {
				r.onSatisfied(m, e)
			}
		}
		if !e.satisfied {
			// The entry dies unsatisfied: drop its candidate refs.
			for _, c := range e.cands {
				c.refs--
				r.stats.CandMoves++
				r.resolveIfDead(c)
			}
		}
		if r.trace.on() {
			r.trace.pop(m, e)
		}
		r.stacks[m.id] = s[:len(s)-1]
		r.stats.Pops++
		r.liveEntries--
		if m.readsText {
			r.textEntries--
		}
	}
}

func (r *Run) endDocument() {
	r.done = true
	if r.liveEntries != 0 {
		r.fail(fmt.Errorf("twigm: internal: %d entries live at end of document", r.liveEntries))
		return
	}
	if err := r.ordered.checkDrained(); err != nil {
		r.fail(err)
	}
}

// textValue returns the accumulated string-value of an entry.
func (e *entry) textValue() string {
	return string(e.textBuf)
}

// checkTop runs the initial satisfaction check on an entry pushed this
// event (top of stack at level d).
//
//vitex:hotpath
func (r *Run) checkTop(m *node, d int) {
	s := r.stacks[m.id]
	if len(s) == 0 {
		return
	}
	e := &s[len(s)-1]
	if e.level != d || e.satisfied {
		return
	}
	if r.prog.eval(&m.cond, e.flags, e, false) {
		if r.opts.DisableEagerPropagation {
			// Ablation mode: defer to pop time. Mark nothing; the
			// pop-time final eval will satisfy the entry.
			return
		}
		r.onSatisfied(m, e)
	}
}

// onSatisfied fires exactly once per entry, when its condition becomes
// true: the entry's subtree pattern is matched with this element as the
// image of m. It propagates m's flag to all axis-compatible parent entries
// and moves the entry's candidates up the spine (or confirms them at the
// root).
//
//vitex:hotpath
func (r *Run) onSatisfied(m *node, e *entry) {
	e.satisfied = true
	if r.trace.on() {
		r.trace.satisfied(m, e)
	}
	if m.parent < 0 {
		for _, c := range e.cands {
			c.refs--
			r.confirm(c)
			r.resolveIfDead(c)
		}
		e.cands = e.cands[:0]
		return
	}
	cands := e.cands
	e.cands = e.cands[:0]
	// Once satisfied, deliverCand never parks on this entry again, so the
	// truncated slice cannot grow under this iteration.
	for _, c := range cands {
		r.stats.CandMoves++
		r.propagate(m, e.level, c)
		c.refs--
		r.resolveIfDead(c)
	}
	if len(cands) == 0 {
		r.propagate(m, e.level, nil)
	}
}

// propagate sets m's flag bit in every parent entry axis-compatible with a
// satisfied m-match at the given level, and (when c is non-nil) hands the
// candidate to each of them. Flags go to every compatible entry — this is
// the compact encoding of the exponentially many pattern matches; the
// candidate's confirmed latch keeps emission exactly-once despite the
// fan-out.
//
//vitex:hotpath
func (r *Run) propagate(m *node, level int, c *candidate) {
	parent := &r.prog.nodes[m.parent]
	s := r.stacks[m.parent]
	lo, hi := compatRange(m, level)
	for i := len(s) - 1; i >= 0; i-- {
		e := &s[i]
		if e.level > hi {
			continue
		}
		if e.level < lo {
			break
		}
		r.deliverFlag(parent, e, m.childIdx)
		if c != nil {
			r.deliverCand(parent, e, c)
		}
	}
}

// compatRange returns the inclusive [lo, hi] parent-entry level range that
// is axis-compatible with a match of m at the given level. Elements and
// text nodes sit strictly below their parents; attributes belong to their
// owner element (child axis) or to any self-or-ancestor owner (descendant,
// per the descendant-or-self expansion of '//@a').
//
//vitex:hotpath
func compatRange(m *node, level int) (lo, hi int) {
	switch {
	case m.kind == xpath.Attribute && m.axis == xpath.Child:
		return level, level
	case m.kind == xpath.Attribute:
		return 0, level
	case m.axis == xpath.Child:
		return level - 1, level - 1
	default:
		return 0, level - 1
	}
}

// deliverFlag sets a flag bit on a parent entry and re-checks its
// condition.
//
//vitex:hotpath
func (r *Run) deliverFlag(parent *node, e *entry, idx int32) {
	bit := uint64(1) << uint(idx)
	if e.flags&bit != 0 {
		return
	}
	e.flags |= bit
	r.stats.FlagProps++
	if r.trace.on() {
		r.trace.flag(parent, &r.prog.nodes[r.prog.list(parent.children)[idx]], e.level)
	}
	if e.satisfied || r.opts.DisableEagerPropagation {
		return
	}
	if r.prog.eval(&parent.cond, e.flags, e, false) {
		r.onSatisfied(parent, e)
	}
}

// deliverCand parks a candidate on a parent entry, or passes it straight
// through when the entry is already satisfied.
//
//vitex:hotpath
func (r *Run) deliverCand(parent *node, e *entry, c *candidate) {
	if c.state != candPending {
		return
	}
	if e.satisfied {
		if parent.parent < 0 {
			r.confirm(c)
			return
		}
		r.stats.CandMoves++
		r.propagate(parent, e.level, c)
		return
	}
	e.cands = append(e.cands, c)
	c.refs++
}

// ---- candidate lifecycle ----

// newCandidate allocates a candidate from the Run's arena.
func (r *Run) newCandidate(offset int64) *candidate {
	c := r.cands.next()
	c.seq, c.offset = r.nextSeq, offset
	r.nextSeq++
	r.stats.CandidatesCreated++
	if r.trace.on() {
		r.trace.candidate(c)
	}
	r.liveCands++
	if r.liveCands > r.stats.PeakLiveCandidates {
		r.stats.PeakLiveCandidates = r.liveCands
	}
	if r.opts.Ordered {
		r.ordered.expect(c.seq)
	}
	return c
}

// confirm marks a candidate as a proven solution; it delivers immediately
// unless the fragment is still being recorded.
//
//vitex:hotpath
func (r *Run) confirm(c *candidate) {
	if c.state != candPending {
		return
	}
	c.state = candConfirmed
	c.confirmedAt = r.stats.Events
	if r.trace.on() {
		r.trace.confirm(c)
	}
	if !c.open {
		r.deliver(c)
	}
}

// resolveIfDead drops a pending candidate whose last reference died: no
// remaining entry can ever confirm it.
//
//vitex:hotpath
func (r *Run) resolveIfDead(c *candidate) {
	if c.state != candPending || c.refs > 0 {
		return
	}
	c.state = candDropped
	r.stats.CandidatesDropped++
	if r.trace.on() {
		r.trace.drop(c)
	}
	r.liveCands--
	r.forget(c, &r.stats)
	if r.opts.Ordered {
		r.release(c.seq, nil)
	}
}

// deliver hands a confirmed, fully recorded candidate to the output, or to
// the re-sequencer, which emits it once every earlier candidate resolved (and
// to a group's members that deliver in confirmation order anyway).
//
//vitex:hotpath
func (r *Run) deliver(c *candidate) {
	r.liveCands--
	r.stats.CandidatesEmitted++
	if !r.opts.Ordered || r.unordered != nil {
		r.emit(c, true)
	}
	if r.opts.Ordered {
		r.release(c.seq, c)
	}
}

// release records the fate of seq in the re-sequencer — delivered as c, or
// dropped when c is nil — and emits what that releases.
//
//vitex:hotpath
func (r *Run) release(seq int64, c *candidate) {
	r.ordered.resolve(seq, c)
	for {
		out, ok := r.ordered.pop()
		if !ok {
			return
		}
		if out != nil {
			r.emit(out, false)
		}
	}
}

// emit delivers a candidate's result, its value made a string now: to the
// run's query, or to the members of its group whose turn it is — in
// confirmation order when early, in document order when not (emitMembers).
//
//vitex:hotpath
func (r *Run) emit(c *candidate, early bool) {
	res := Result{
		Seq:         c.seq,
		NodeOffset:  c.offset,
		Value:       r.rec.fragment(c),
		ConfirmedAt: c.confirmedAt,
		DeliveredAt: r.stats.Events,
	}
	if r.group != nil {
		r.emitMembers(c, &res, early)
		return
	}
	r.emitTo(r.opts.ID, &res)
}

// emitTo hands one result to EmitFrom under id.
//
//vitex:hotpath
func (r *Run) emitTo(id int, res *Result) {
	r.count++
	if r.trace.on() {
		r.trace.emit(res)
	}
	if r.opts.EmitFrom != nil {
		if err := r.opts.EmitFrom(id, *res); err != nil {
			r.fail(err)
		}
	}
}
