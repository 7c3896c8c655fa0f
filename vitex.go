// Package vitex is a streaming XPath processing system: a from-scratch Go
// reproduction of ViteX (Chen, Davidson, Zheng — "ViteX: a Streaming XPath
// Processing System", ICDE 2005).
//
// ViteX evaluates XPath queries in the fragment XP{/, //, *, []} — child
// axes, descendant axes, wildcards and predicates — over XML streams in a
// single sequential scan, with time and space polynomial in both data and
// query size. The engine behind it, the TwigM machine, keeps one stack per
// query node and encodes the (worst-case exponential) set of pattern
// matches compactly in per-entry bitsets; query solutions are computed by
// probing this structure lazily, without ever enumerating matches. Results
// are delivered incrementally, as soon as they are proven, long before the
// stream ends.
//
// The package is organized like figure 2 of the paper, with one extra layer
// for the paper's many-standing-queries scenario:
//
//	XPath parser  (internal/xpath)  — query text → query tree
//	TwigM builder (internal/twigm)  — query tree → machine, linear time
//	SAX parser    (internal/xmlscan)— byte stream → events, single pass
//	TwigM machine (internal/twigm)  — events → solutions
//	Query engine  (internal/engine) — routed multi-query dispatch
//
// All machines of a Query (or QuerySet) are compiled against one shared
// symbol table; the scanner stamps each event with its name's integer ID,
// and the engine routes the event only to the machines whose element or
// attribute tests mention that name (wildcard, end-tag and text
// subscriptions are tracked separately, and result fragments are spans of one
// serialization of the document, not a reason to see more events). The
// compilation unit is the query
// SET: the purely structural leading steps of every query are factored into
// one shared axis-step trie, evaluated once per event, with each query
// reduced to a residual machine anchored at its trie node — overlapping
// subscriptions like //channel//article/head/… pay for their shared prefix
// once, however many of them are standing. Evaluating N standing queries
// over one feed therefore costs one parse plus work proportional to the
// queries an event actually concerns — not O(N) per event — and grows
// sublinearly in N on overlapping sets. Machine state, scanner
// buffers and dispatch sets are pooled and reused across documents, and a
// machine is reset only when a document first wakes it: per document a
// long-lived Query or QuerySet allocates its results and, through Stream, the
// statistics it returns, made after the scan, and pays for the queries the
// document concerns. A QuerySet is live: Add, Remove and
// Replace mutate it between (and safely concurrent with) Stream calls,
// compiling only the changed query — the engine versions its membership in
// immutable epochs of chunked copy-on-write tables, and pooled sessions resync
// by each mutation's delta. A mutation costs what it changes: its compile,
// the table chunks it touches and the spines above them; Remove(i) also
// shifts the indexes of the queries after i.
//
// Quick start:
//
//	q := vitex.MustCompile("//section[author]//table[position]//cell")
//	err := q.Stream(file, vitex.Options{}, func(r vitex.Result) error {
//		fmt.Println(r.Value)
//		return nil
//	})
//
// Supported XPath: abbreviated steps with / and //, name tests, *, @attr,
// text(); predicates combining relative paths, attribute and text()
// existence tests, value comparisons (= != < <= > >=) against string or
// numeric literals, self comparisons [. = 'v'], 'and'/'or', parentheses and
// nesting; top-level unions 'p1 | p2'. Out of scope (rejected at compile
// time): functions (not(), position(), ...), positional predicates,
// path-vs-path comparisons, reverse and named axes.
package vitex

import (
	"context"
	"io"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// Result is one query solution.
type Result struct {
	// Seq numbers solutions in document order of their result nodes.
	Seq int64
	// NodeOffset identifies the result node by its byte position in the
	// input: equal offsets across queries over the same stream mean the
	// same node. Union evaluation deduplicates on it.
	NodeOffset int64
	// Value is the canonical serialization: the XML fragment for element
	// results, the raw value for attribute and text() results. Empty
	// when Options.CountOnly is set. It is an immutable string, valid for
	// ever. An element result's fragment is copied out of the engine's
	// recording of the document only when the result is delivered, and a
	// result whose fragment lies inside the one copied just before it (a
	// nested result in document order) is a substring of that copy: two
	// Values share bytes only that way, so keeping a small nested Value
	// keeps its enclosing copy alive.
	Value string
	// ConfirmedAt and DeliveredAt are SAX-event indices recording when
	// the solution was proven and when it was handed to the callback —
	// the incremental-delivery latency of the paper's §1 requirement 2.
	ConfirmedAt int64
	DeliveredAt int64
}

// Stats reports the work a stream evaluation performed; see the fields of
// twigm.Stats for the full accounting. The counters quantify the paper's
// claims: PeakStackEntries and PeakBufferedBytes bound memory (claim 3),
// FlagProps counts compact-encoding work (claim 4).
type Stats = twigm.Stats

// Options configures an evaluation.
type Options struct {
	// Ordered delivers results in document order instead of
	// confirmation order (adds buffering latency).
	Ordered bool
	// CountOnly suppresses fragment serialization; Result.Value is
	// empty. Fastest mode; used for counting and memory experiments.
	CountOnly bool
	// Deprecated: Parallel is ignored. Every evaluation is serial: one scan
	// on the calling goroutine routes each event to the machines it
	// concerns. Sharding the machines over worker goroutines never reached
	// a reliable speedup, and was removed.
	Parallel int
	// Trace, when non-nil, receives a human-readable log of every TwigM
	// transition — stack pushes and pops, flag propagations, candidate
	// lifecycle and emissions. The demonstration view of the system;
	// substantially slower, leave nil in production. Equality queries of one
	// shape in a QuerySet (…/f[. = 'v'] for several values) run as one
	// machine, which logs each transition once — match and proven when some
	// query's literal matched, drop otherwise — and one emit line per result
	// it delivers; a machine of one query logs exactly its own transitions.
	Trace io.Writer
	// Context, when non-nil, cancels the evaluation: the engine checks it at
	// every event it routes and, where the scanner passes over markup no
	// query observes, at least once every 128 scanned events and before
	// every read of the input. So a cancellation — whether from a deadline,
	// a disconnecting network client, or inside the Emit callback itself —
	// aborts the stream promptly mid-document and the evaluation returns
	// ctx.Err(). Nil means
	// no cancellation (context.Background) and costs nothing on the hot
	// path. This is the lever a serving layer uses to tie evaluations to
	// request and shutdown lifecycles.
	Context context.Context
}

// Query is a compiled query: one immutable TwigM program per union branch
// (a single-path query has exactly one), compiled against a shared symbol
// table and wrapped in a routed-dispatch engine. A Query can evaluate any
// number of streams, including concurrently (each evaluation checks private
// machine state out of the engine's session pool, so repeated streaming over
// one Query reuses warmed-up state instead of reallocating it).
//
// A Query keeps its source and its canonical text, not the parse tree: a set
// holds one Query per standing query, and what it holds the garbage collector
// marks. Whatever needs the tree again (the Query's own engine, a set's Add)
// parses the source again.
type Query struct {
	src string
	// canonical is String's text: src itself when the source is canonical.
	canonical string

	// The query's own engine, built once: by Compile, or, for a Query a
	// QuerySet parsed (whose branches run in the set's engine), when it is
	// first used on its own.
	once  sync.Once
	err   error
	eng   *engine.Engine
	progs []*twigm.Program
	// shape presents the branches as a one-query set, so Stream runs the
	// same evaluation a QuerySet does.
	shape *shape
}

// Compile parses an XPath query — including unions 'p1 | p2' — and builds
// one TwigM machine per branch, all interned into one symbol table so scan
// events dispatch by integer name ID. Build time is linear in the query
// size. Errors are *xpath.ParseError or *twigm.CompileError values
// describing the offending position or width.
func Compile(src string) (*Query, error) {
	parsed, err := xpath.ParseUnion(src)
	if err != nil {
		return nil, err
	}
	q := &Query{src: src, canonical: canonical(src, parsed)}
	if err := q.build(parsed); err != nil {
		return nil, err
	}
	return q, nil
}

// canonical returns the canonical text of a query parsed from src into
// branches: their canonical forms joined by " | ", which is src itself when
// the source is already canonical.
func canonical(src string, branches []*xpath.Query) string {
	var parts []string
	for _, b := range branches {
		parts = append(parts, b.String())
	}
	if text := strings.Join(parts, " | "); text != src {
		return text
	}
	return src
}

// branches parses the query's source again into its branches. It parsed
// once already, so only a query that was never compiled can fail here.
func (q *Query) branches() ([]*xpath.Query, error) { return xpath.ParseUnion(q.src) }

// build compiles the query's own engine the first time it is needed, from
// parsed, or, when that is nil, from the source parsed again. A Query a
// QuerySet made has compiled into the set's engine already, so only Stream
// can see an error here, and Size and MachineDescription describe no machine
// after one.
func (q *Query) build(parsed []*xpath.Query) error {
	q.once.Do(func() {
		if parsed == nil {
			if parsed, q.err = q.branches(); q.err != nil {
				return
			}
		}
		eng, err := engine.New(parsed...)
		if err != nil {
			q.err = err
			return
		}
		q.eng, q.progs = eng, eng.Programs()
		sh := &shape{nq: 1}
		sh.add(0, len(q.progs))
		q.shape = sh.sealed()
	})
	return q.err
}

// MustCompile is Compile, panicking on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the canonical form of the query (branches joined by '|').
func (q *Query) String() string { return q.canonical }

// Source returns the original query text.
func (q *Query) Source() string { return q.src }

// Size returns the number of query nodes across all branches — the |Q| of
// the paper's complexity bounds.
func (q *Query) Size() int {
	q.build(nil)
	n := 0
	for _, p := range q.progs {
		n += p.NumNodes()
	}
	return n
}

// MachineDescription renders the TwigM machine tree(s) (the figure-3 view):
// one node per line, '-' edges for child axes, '=' for descendant axes, '*'
// marking the output node. Union branches are separated by a '|' line.
func (q *Query) MachineDescription() string {
	q.build(nil)
	parts := make([]string, len(q.progs))
	for i, p := range q.progs {
		parts[i] = p.Describe()
	}
	return strings.Join(parts, "|\n")
}

// Stream evaluates the query over an XML stream, invoking emit for each
// solution as soon as it is proven (or in document order with
// Options.Ordered). It returns evaluation statistics and the first error:
// malformed XML, a failed read, or an error returned by emit (which aborts
// the stream).
//
// Union queries run one machine per branch over the same single scan.
// Results are deduplicated by node (NodeOffset): without Ordered, a node is
// emitted the first time any branch proves it; with Ordered, union results
// are buffered to the end of the stream and emitted in document order
// (single-path queries keep the cheaper streaming re-sequencer).
func (q *Query) Stream(r io.Reader, opts Options, emit func(Result) error) (Stats, error) {
	if err := q.build(nil); err != nil {
		return Stats{}, err
	}
	var each func(SetResult) error
	if emit != nil {
		each = func(sr SetResult) error { return emit(sr.Result) }
	}
	_, rows, err := evaluate(q.eng.Snapshot(), q.shape, r, opts, each, true)
	return rows[0], err
}

// Evaluate runs the query over a whole document and returns all solutions
// in document order.
func (q *Query) Evaluate(r io.Reader, opts Options) ([]Result, error) {
	opts.Ordered = true
	var out []Result
	_, err := q.Stream(r, opts, func(res Result) error {
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateString evaluates over an in-memory document and returns the
// solution values in document order — the one-liner API.
func (q *Query) EvaluateString(doc string) ([]string, error) {
	results, err := q.Evaluate(strings.NewReader(doc), Options{})
	if err != nil {
		return nil, err
	}
	values := make([]string, len(results))
	for i, res := range results {
		values[i] = res.Value
	}
	return values, nil
}

// Count streams the document counting solutions without serializing them.
func (q *Query) Count(r io.Reader) (int64, error) {
	n := int64(0)
	_, err := q.Stream(r, Options{CountOnly: true}, func(Result) error {
		n++
		return nil
	})
	return n, err
}
