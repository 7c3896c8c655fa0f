package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

// deltaMachine is one machine of the walk's membership, in dense order: its
// source, and whether it is a union branch (it delivers in confirmation order
// under Ordered, Plan.Unordered).
type deltaMachine struct {
	src       string
	unordered bool
}

// streamEpoch evaluates ep on the pooled state under Ordered, with the union
// branches unordered, and returns each machine's results and statistics.
func (p *pooledEval) streamEpoch(t *testing.T, ep *epoch, ms []deltaMachine, doc string) ([][]twigm.Result, []twigm.Stats) {
	t.Helper()
	opts := make([]twigm.Options, ep.live.Len())
	out := make([][]twigm.Result, len(opts))
	for d := range opts {
		opts[d].Ordered = !ms[d].unordered
		opts[d].EmitFrom = func(_ int, r twigm.Result) error {
			out[d] = append(out[d], r)
			return nil
		}
	}
	plan, finish := planOf(opts)
	p.ses.scan.Reset(strings.NewReader(doc))
	scan, err := p.ses.stream(context.Background(), p.e, ep, saxtest.PoisonDriver(p.ses.scan), plan)
	if err != nil {
		t.Fatal(err)
	}
	return out, finish(scan)
}

// TestDeltaResyncMatchesFresh is the randomized oracle of delta resync. A
// random walk of Add, Remove and Replace — value-group joins, leaves and host
// changes, union branches, last-slot reclaims, and enough removals to cross
// both the slot- and the trie-compaction thresholds — runs against one
// engine, while two pooled sessions stay checked out across it. They stream
// after batches of one to twenty mutations (the lagging one skips every
// third, so it resyncs across longer delta chains), and now and then an
// older snapshot, which a session must resync back to; once, the batch is
// more than maxLag mutations long, and they rebuild. Every stream must equal
// a fresh engine's over the same membership, result for result and statistic
// for statistic.
func TestDeltaResyncMatchesFresh(t *testing.T) {
	vocab := []string{
		"//trade/symbol[. = 'ACME']", "//trade/symbol[. = 'GLOBEX']", "//trade/symbol[. = 'ACME']",
		"//feed//trade/price[. = '12']", "//feed//trade/price[. = '15']", "//symbol[. = 'GLOBEX']",
		"//trade/price", "//trade[symbol='ACME']/price", "//news//body", "//body/@k",
		"//title/text()", "//*[@k]", "//feed//trade", "//trade[price>15]/@seq",
	}
	unions := [][2]string{{"//trade/price", "//trade/volume"}, {"//news/title", "//feed/news"}}
	doc := staleFeed(12)
	rng := rand.New(rand.NewSource(11))
	e := mustEngine(t)
	var ms []deltaMachine
	current, lagging := newPooledEval(e), newPooledEval(e)
	type past struct {
		ep *epoch
		ms []deltaMachine
	}
	var history []past
	unique := 0
	newSource := func() string {
		if rng.Intn(3) == 0 {
			unique++ // a prefix of its own: grows the trie, and its removal prunes it
			return fmt.Sprintf("//u%d/v%d/w[. = '%d']", unique, unique, unique%3)
		}
		return vocab[rng.Intn(len(vocab))]
	}
	add := func(src string, unordered bool) {
		if _, err := e.Add(xpath.MustParse(src)); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, deltaMachine{src, unordered})
	}
	steps := 80
	if testing.Short() {
		steps = 40
	}
	m0 := e.Metrics()
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// Past the end of the delta chain: one change, then a chain's
			// worth of mutations that add and take back another machine.
			add("//trade/price", false)
			for range maxLag/2 + 1 {
				p, err := e.Add(xpath.MustParse("//trade/volume"))
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range 1 + rng.Intn(20) {
			switch op := rng.Intn(10); {
			case op < 4 || len(ms) < 2:
				if rng.Intn(5) == 0 {
					u := unions[rng.Intn(len(unions))]
					add(u[0], true)
					add(u[1], true)
				} else {
					add(newSource(), false)
				}
			case op < 8:
				d := rng.Intn(len(ms))
				if rng.Intn(3) == 0 {
					d = len(ms) - 1 // the last slot is reclaimed at once
				}
				if err := e.Remove(e.Programs()[d]); err != nil {
					t.Fatal(err)
				}
				ms = append(ms[:d:d], ms[d+1:]...)
			default:
				d := rng.Intn(len(ms))
				src := newSource()
				if _, err := e.Replace(e.Programs()[d], xpath.MustParse(src)); err != nil {
					t.Fatal(err)
				}
				ms = append([]deltaMachine(nil), ms...)
				ms[d].src = src
			}
		}
		ep := e.cur.Load()
		history = append(history, past{ep, ms})
		check := func(p *pooledEval, at past, what string) {
			t.Helper()
			srcs := make([]string, len(at.ms))
			for d, m := range at.ms {
				srcs[d] = m.src
			}
			fresh := e
			if len(srcs) > 0 {
				fresh = mustEngine(t, srcs...)
			}
			want, wantStats := newPooledEval(fresh).streamEpoch(t, fresh.cur.Load(), at.ms, doc)
			got, gotStats := p.streamEpoch(t, at.ep, at.ms, doc)
			for d := range at.ms {
				if !reflect.DeepEqual(got[d], want[d]) || gotStats[d] != wantStats[d] {
					t.Fatalf("step %d, %s: machine %d %s diverges from a fresh engine\npooled %+v %+v\nfresh  %+v %+v",
						step, what, d, at.ms[d].src, got[d], gotStats[d], want[d], wantStats[d])
				}
			}
		}
		if len(ms) == 0 {
			continue
		}
		check(current, history[len(history)-1], "current")
		if step%3 != 1 {
			check(lagging, history[len(history)-1], "lagging")
		}
		if back := rng.Intn(len(history)); rng.Intn(4) == 0 && len(history[back].ms) > 0 {
			check(current, history[back], fmt.Sprintf("current, back to step %d", back))
			check(lagging, history[back], fmt.Sprintf("lagging, back to step %d", back))
		}
	}
	m := e.Metrics()
	if m.Compactions == m0.Compactions || m.TrieCompactions == m0.TrieCompactions {
		t.Fatalf("the walk crossed no slot or no trie compaction (%+v): it lost a subject", m)
	}
	if m.ValueGroups == 0 {
		t.Fatal("the walk ended without a value group: it lost a subject")
	}
}

// TestResyncFollowsHostChange: when a value group's host leaves, the next
// member becomes the host without a program change of its own, and a pooled
// session's resync must give it the run that evaluates the group. The random
// walk rarely isolates that case.
func TestResyncFollowsHostChange(t *testing.T) {
	ms := []deltaMachine{{src: "//trade/symbol[. = 'ACME']"}, {src: "//trade/symbol[. = 'GLOBEX']"}, {src: "//news//body"}}
	e := mustEngine(t, ms[0].src, ms[1].src, ms[2].src)
	doc := staleFeed(12)
	pooled := newPooledEval(e)
	pooled.streamEpoch(t, e.cur.Load(), ms, doc)
	if err := e.Remove(e.Programs()[0]); err != nil { // slot 0: the host
		t.Fatal(err)
	}
	ms = ms[1:]
	if g := e.cur.Load().group(1); g == nil || g.Host() != 1 {
		t.Fatal("slot 1 does not host the group")
	}
	fresh := mustEngine(t, ms[0].src, ms[1].src)
	want, wantStats := newPooledEval(fresh).streamEpoch(t, fresh.cur.Load(), ms, doc)
	got, gotStats := pooled.streamEpoch(t, e.cur.Load(), ms, doc)
	if len(want[0]) == 0 {
		t.Fatal("the group's remaining member matches nothing: the test lost its subject")
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("pooled session after a host change\ngot  %+v %+v\nwant %+v %+v", got, gotStats, want, wantStats)
	}
}
