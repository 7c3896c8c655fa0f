package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// The stale-state campaign. A pooled session prepares a machine for a
// document only when the document first wakes it, so between documents its
// runs keep whatever the last document that woke them left behind — live
// stack entries and all, if that document was aborted. None of it may show:
// a machine woken by document 1 and idle in document 2 reports no results and
// no work for document 2, whatever happened in between. The reference for
// every document is a fresh engine that has seen nothing else.

// staleQueries: document 1 (staleDoc1) wakes all but the last two, document 2
// (staleDoc2) only the last two and the wildcard. The first keeps its own
// entry for the root element (a predicate on the first step shares no
// prefix), so it has a live entry wherever document 1 is cut short.
var staleQueries = []string{
	"//feed[trade]//title",
	"//trade[symbol='ACME']/price",
	"//trade/volume",
	"//trade/@seq",
	"//news/body/text()",
	"//news//*",
	"//feed/news",
	"//trade[price>15]",
	"//quote/bid",
	"//quote[@venue='X']/ask/text()",
}

// staleDoc1 is ~33k events, several scanner batches: an emit error or a
// cancellation on its first result stops the scan mid-document.
var staleDoc1 = staleFeed(3000)

func staleFeed(trades int) string {
	var sb strings.Builder
	sb.WriteString(`<feed>`)
	for i := 0; i < trades; i++ {
		fmt.Fprintf(&sb, `<trade seq="%d"><symbol>%s</symbol><price>%d</price><volume>%d</volume></trade>`,
			i, []string{"ACME", "GLOBEX"}[i%2], 10+i%10, i%7)
	}
	sb.WriteString(`<news><title>t</title><body k="1">some <b>bold</b> text</body></news></feed>`)
	return sb.String()
}

const staleDoc2 = `<market><quote venue="X"><bid>5</bid><ask>6</ask></quote><quote venue="Y"><bid>7</bid><ask>8</ask></quote></market>`

// pooledEval is one pooled evaluation session, driven document after
// document over the poisoning sink, the way the engine's pool would reuse it.
type pooledEval struct {
	e   *Engine
	ses *session
}

// serial is the subtest name of a test's arm on one pooled session: the
// session routes every machine itself, with no shard workers.
const serial = "workers=0"

func newPooledEval(e *Engine) *pooledEval {
	return &pooledEval{e: e, ses: newSession(e)}
}

// stream evaluates the engine's current membership over doc on the pooled
// state. emit, when non-nil, sees every result before it is recorded and may
// fail the stream.
func (p *pooledEval) stream(ctx context.Context, doc string, emit func(twigm.Result) error) ([][]twigm.Result, []twigm.Stats, error) {
	ep := p.e.cur.Load()
	out := make([][]twigm.Result, ep.live.Len())
	opts := make([]twigm.Options, ep.live.Len())
	for d := range opts {
		opts[d].EmitFrom = func(_ int, r twigm.Result) error {
			if emit != nil {
				if err := emit(r); err != nil {
					return err
				}
			}
			out[d] = append(out[d], r)
			return nil
		}
	}
	plan, finish := planOf(opts)
	p.ses.scan.Reset(strings.NewReader(doc))
	scan, err := p.ses.stream(ctx, p.e, ep, saxtest.PoisonDriver(p.ses.scan), plan)
	return out, finish(scan), err
}

// runs returns the pooled session's slot-indexed runs.
func (p *pooledEval) runs() []*twigm.Run { return p.ses.rt.runs }

// assertFresh holds the pooled state's evaluation of doc against a fresh
// engine over the same sources, machine by machine.
func assertFresh(t *testing.T, p *pooledEval, sources []string, doc string) ([][]twigm.Result, []twigm.Stats) {
	t.Helper()
	got, gotStats, err := p.stream(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := newPooledEval(mustEngine(t, sources...)).stream(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range sources {
		if !reflect.DeepEqual(got[d], want[d]) {
			t.Fatalf("machine %d %s: results diverge from a fresh engine\npooled %+v\nfresh  %+v", d, sources[d], got[d], want[d])
		}
		if gotStats[d] != wantStats[d] {
			t.Fatalf("machine %d %s: stats diverge from a fresh engine\npooled %+v\nfresh  %+v", d, sources[d], gotStats[d], wantStats[d])
		}
	}
	return got, gotStats
}

// assertIdleAfterWoken checks the property by name: some machine did work in
// document 1 and, in document 2, reports nothing but the shared scan.
func assertIdleAfterWoken(t *testing.T, stats1, stats2 []twigm.Stats, results2 [][]twigm.Result) {
	t.Helper()
	scan := twigm.Stats{Events: stats2[0].Events, Elements: stats2[0].Elements, MaxDepth: stats2[0].MaxDepth}
	seen := false
	for d := range stats1 {
		if d >= len(stats2) || stats1[d].Pushes == 0 {
			continue
		}
		if stats2[d] == scan {
			seen = true
			if len(results2[d]) != 0 {
				t.Fatalf("machine %d idle in document 2 yet emitted %+v", d, results2[d])
			}
		}
	}
	if !seen {
		t.Fatal("no machine was woken by document 1 and idle in document 2: the test lost its subject")
	}
}

func TestIdleAfterWoken(t *testing.T) {
	t.Run(serial, func(t *testing.T) {
		p := newPooledEval(mustEngine(t, staleQueries...))
		_, stats1 := assertFresh(t, p, staleQueries, staleDoc1)
		results2, stats2 := assertFresh(t, p, staleQueries, staleDoc2)
		assertIdleAfterWoken(t, stats1, stats2, results2)
		// And back: the machines document 2 left idle wake clean.
		assertFresh(t, p, staleQueries, staleDoc1)
	})
}

// TestIdleAfterAbortedDocument: document 1 dies mid-element, three ways, and
// leaves live stack entries in the pooled runs. Document 2 wakes none of
// those machines, so nothing ever resets them — and nothing of them may show.
func TestIdleAfterAbortedDocument(t *testing.T) {
	boom := errors.New("boom")
	aborts := []struct {
		name string
		run  func(p *pooledEval) error
		is   func(error) bool
	}{
		{"malformed", func(p *pooledEval) error {
			cut := strings.LastIndex(staleDoc1, "<volume>")
			_, _, err := p.stream(context.Background(), staleDoc1[:cut]+"<volume>3</price>", nil)
			return err
		}, func(err error) bool { return err != nil && !errors.Is(err, boom) }},
		{"emit error", func(p *pooledEval) error {
			_, _, err := p.stream(context.Background(), staleDoc1, func(twigm.Result) error { return boom })
			return err
		}, func(err error) bool { return errors.Is(err, boom) }},
		{"cancelled", func(p *pooledEval) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _, err := p.stream(ctx, staleDoc1, func(twigm.Result) error { cancel(); return nil })
			return err
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, abort := range aborts {
		t.Run(serial+"/"+abort.name, func(t *testing.T) {
			p := newPooledEval(mustEngine(t, staleQueries...))
			_, stats1 := assertFresh(t, p, staleQueries, staleDoc1)
			if err := abort.run(p); !abort.is(err) {
				t.Fatalf("aborting stream returned %v", err)
			}
			if p.runs()[0].LiveEntries() == 0 {
				t.Fatal("the aborted document left no live stack entry: the test lost its subject")
			}
			results2, stats2 := assertFresh(t, p, staleQueries, staleDoc2)
			assertIdleAfterWoken(t, stats1, stats2, results2)
			if p.runs()[0].LiveEntries() == 0 {
				t.Fatal("an idle machine was reset: document 2 paid for a machine it never woke")
			}
			assertFresh(t, p, staleQueries, staleDoc1)
		})
	}
}

// TestIdleAcrossResync: the membership changes between the two documents, so
// the pooled session resyncs its runs (by the mutation's delta, or re-keyed
// to new slots after the compaction) before document 2. Preparation stamps must not travel with a slot number to a run
// that was not prepared, nor survive on a run that was.
func TestIdleAcrossResync(t *testing.T) {
	doc1 := staleFeed(40)
	// Fillers that document 1 wakes (and stamps) and document 2 does not.
	filler := make([]string, 2*compactMinGarbage)
	for i := range filler {
		filler[i] = fmt.Sprintf("//trade[symbol='F%d']/price", i)
	}
	type mutation struct {
		name string
		// aligned: dense indexes after the mutation line up with document 1's.
		aligned bool
		apply   func(t *testing.T, e *Engine, sources []string) []string
	}
	remove := func(t *testing.T, e *Engine, sources []string, d int) []string {
		t.Helper()
		if err := e.Remove(e.Programs()[d]); err != nil {
			t.Fatal(err)
		}
		return append(append([]string(nil), sources[:d]...), sources[d+1:]...)
	}
	mutations := []mutation{
		{"add", true, func(t *testing.T, e *Engine, sources []string) []string {
			if _, err := e.Add(xpath.MustParse("//quote/ask")); err != nil {
				t.Fatal(err)
			}
			return append(append([]string(nil), sources...), "//quote/ask")
		}},
		{"remove", false, func(t *testing.T, e *Engine, sources []string) []string {
			return remove(t, e, sources, len(filler)+1) // a machine document 1 woke; later slots keep their numbers
		}},
		{"replace", true, func(t *testing.T, e *Engine, sources []string) []string {
			d := len(filler) + 2 // a machine document 1 woke; its slot gets a new run
			if _, err := e.Replace(e.Programs()[d], xpath.MustParse("//quote/bid/text()")); err != nil {
				t.Fatal(err)
			}
			out := append([]string(nil), sources...)
			out[d] = "//quote/bid/text()"
			return out
		}},
		{"compaction", false, func(t *testing.T, e *Engine, sources []string) []string {
			// The fillers sit in front: removing them all compacts, and every
			// surviving run moves to a slot a filler's run was stamped in.
			before := e.Metrics().Compactions
			for range filler {
				sources = remove(t, e, sources, 0)
			}
			if e.Metrics().Compactions == before {
				t.Fatal("no compaction: the test lost its subject")
			}
			return sources
		}},
	}
	for _, aborted := range []bool{false, true} {
		for _, m := range mutations {
			t.Run(fmt.Sprintf("%s/aborted=%v/%s", serial, aborted, m.name), func(t *testing.T) {
				sources := append(append([]string(nil), filler...), staleQueries...)
				e := mustEngine(t, sources...)
				p := newPooledEval(e)
				_, stats1 := assertFresh(t, p, sources, doc1)
				if aborted {
					if _, _, err := p.stream(context.Background(), doc1[:len(doc1)/2], nil); err == nil {
						t.Fatal("truncated document streamed cleanly")
					}
				}
				after := m.apply(t, e, sources)
				results2, stats2 := assertFresh(t, p, after, staleDoc2)
				if m.aligned {
					assertIdleAfterWoken(t, stats1, stats2, results2)
				}
				assertFresh(t, p, after, doc1)
			})
		}
	}
}

// docToken stands for what a caller's emit closure captures of one document:
// its result buffers, its statistics, its connection.
type docToken struct{ results [8]int64 }

// tokenRows is a Rows that owns a docToken, as a caller's rows own what the
// caller keeps of its document.
type tokenRows struct {
	machineRows
	tok *docToken
}

// streamHolding streams doc with an emit hook that owns a fresh docToken (and,
// when traced, a trace writer of its own) and returns weak pointers to both.
// With stats the plan's Rows owns the token too. In a function of its own so
// that no stack slot of the caller keeps them alive.
func streamHolding(t *testing.T, p *pooledEval, doc string, traced, stats, malformed bool) (weak.Pointer[docToken], weak.Pointer[bytes.Buffer]) {
	t.Helper()
	tok, trace := new(docToken), new(bytes.Buffer)
	plan := Plan{Options: twigm.Options{EmitFrom: func(d int, _ twigm.Result) error {
		tok.results[d%len(tok.results)]++
		return nil
	}}}
	if traced {
		plan.Options.Trace = trace
	}
	rows := &tokenRows{machineRows{rows: make([]twigm.Stats, p.e.Len())}, tok}
	if stats {
		plan.Rows = rows
	}
	p.ses.scan.Reset(strings.NewReader(doc))
	_, err := p.ses.stream(context.Background(), p.e, p.e.cur.Load(), p.ses.scan, plan)
	if (err != nil) != malformed {
		t.Fatalf("%s: malformed=%v, streamed with error %v", doc, malformed, err)
	}
	if tok.results == (docToken{}).results {
		t.Fatalf("%s woke nothing: the test lost its subject", doc)
	}
	if reported := rows.made == 1; reported != stats {
		t.Fatalf("%s: statistics asked for %v, reported %v", doc, stats, reported)
	}
	return weak.Make(tok), weak.Make(trace)
}

// TestIdleRunsKeepNothingOfADocument: each document wakes one machine, which
// then stays idle for good, so nothing ever resets it. A pooled session must
// not hold on to a finished document's emit hook or trace writer through it —
// that would pin one caller's evaluation per machine, memory quadratic in the
// standing set — whether the document ended cleanly or was cut short, and
// whether the plan asked for statistics or not.
func TestIdleRunsKeepNothingOfADocument(t *testing.T) {
	const n = 32
	sources := make([]string, n)
	for i := range sources {
		// Every third a value group's, which a document wakes just the same.
		sources[i] = fmt.Sprintf("//q%d", i)
		if i%3 == 0 {
			sources[i] += "[. = '']"
		}
	}
	for _, mode := range []struct {
		name   string
		traced bool
		stats  bool
	}{{"serial", false, true}, {"serial traced", true, true}, {"serial without statistics", false, false}} {
		t.Run(mode.name, func(t *testing.T) {
			p := newPooledEval(mustEngine(t, sources...))
			var toks []weak.Pointer[docToken]
			var traces []weak.Pointer[bytes.Buffer]
			for i := range sources {
				doc, malformed := fmt.Sprintf("<q%d/>", i), i%2 == 1
				if malformed {
					doc += "</oops>"
				}
				tok, trace := streamHolding(t, p, doc, mode.traced, mode.stats, malformed)
				toks, traces = append(toks, tok), append(traces, trace)
			}
			runtime.GC()
			for i := range toks {
				if toks[i].Value() != nil {
					t.Fatalf("document %d's emit hook is still reachable from the pooled session", i)
				}
				if traces[i].Value() != nil {
					t.Fatalf("document %d's trace writer is still reachable from the pooled session", i)
				}
			}
			runtime.KeepAlive(p)
		})
	}
}

// TestPoolSweepReleasesIdleSession: the pool's slot keeps its session while
// a session is put back between two sweeps, and hands it to the sync.Pool
// after a whole sweep period without one, so an idle engine keeps no
// session the collector cannot take. The sweeps are called directly; the
// timer's own would come a second later.
func TestPoolSweepReleasesIdleSession(t *testing.T) {
	var p pool
	s := new(session)
	p.put(s)
	p.sweep()
	if p.last.Load() != s {
		t.Fatal("a sweep after a put released the session")
	}
	p.sweep()
	if p.last.Load() != nil {
		t.Fatal("a sweep after an idle period kept the session in the slot")
	}
	if p.armed.Load() {
		t.Fatal("the sweep stays armed over an empty slot")
	}
	p.mu.Lock()
	p.timer.Stop()
	p.mu.Unlock()
}
