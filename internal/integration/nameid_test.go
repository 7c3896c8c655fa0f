package integration

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
)

// The name contract. Machines, the prefix trie and the router dispatch a
// start tag by the name IDs its front-end stamps on it and on each of its
// attributes. A tag that arrives without one (sax.SymNone) is refused where
// it enters, by Run.HandleBatch or by the engine's router, with
// twigm.ErrNoNameID: dispatched by ID it would match nothing, silently.

const nameIDDoc = `<r><a k="1"><b>x</b></a><a><b>y</b></a></r>`

// nameIDQueries are named, non-wildcard machines only: an ID-less tag
// routed by ID would reach none of them.
var nameIDQueries = []string{"//a", "//r/a/b", "//a[@k]/b", "//a/@k"}

// unstampAttr is a driver whose start tags keep their element's name ID but
// lose the named attribute's.
type unstampAttr struct {
	d    sax.Driver
	attr string
}

func (u unstampAttr) Run(h sax.Handler) error {
	return u.d.Run(sax.PerEvent(func(ev *sax.Event) error {
		for i := range ev.Attrs {
			if ev.Attrs[i].Name == u.attr {
				ev.Attrs[i].NameID = sax.SymNone
			}
		}
		return h.HandleBatch([]sax.Event{*ev})
	}))
}

// TestRunRefusesIDLessNames drives each machine directly: on its program's
// table it matches, and on a front-end without the table, or with one
// attribute unstamped, it fails with ErrNoNameID.
func TestRunRefusesIDLessNames(t *testing.T) {
	for _, src := range nameIDQueries {
		prog := twigm.MustCompile(src)
		results, _, err := twigm.Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(nameIDDoc), prog.Symbols())), twigm.Options{})
		if err != nil || len(results) == 0 {
			t.Fatalf("%s on its program's table: %d results, err %v", src, len(results), err)
		}
		for name, d := range map[string]sax.Driver{
			"no table":            saxtest.NewStdDriver(strings.NewReader(nameIDDoc)),
			"unstamped attribute": unstampAttr{xmlscan.NewScannerWith(strings.NewReader(nameIDDoc), prog.Symbols()), "k"},
		} {
			if _, _, err := twigm.Collect(prog, d, twigm.Options{}); !errors.Is(err, twigm.ErrNoNameID) {
				t.Fatalf("%s, %s: err %v, want ErrNoNameID", src, name, err)
			}
		}
	}
}

// TestEngineRefusesIDLessNames evaluates the set through the engine, with
// prefix sharing and without: what the session's scanner delivers, then a
// front-end without the engine's table and one attribute unstamped, which
// fail with ErrNoNameID, then the scanner again on the same engine, which
// still delivers the same results and statistics.
func TestEngineRefusesIDLessNames(t *testing.T) {
	ms := parseMachines(t, nameIDQueries)
	for _, cfg := range []engine.Config{{}, {DisablePrefixSharing: true}} {
		e := mustEngineOf(t, cfg, ms.branches)
		want, wantStats := evalPoisoned(t, e, ms.union, nameIDDoc, twigm.Options{})
		if len(want) == 0 {
			t.Fatalf("%+v: the scanner delivers nothing", cfg)
		}
		for name, wrap := range map[string]func(sax.Driver) sax.Driver{
			"no table":            func(sax.Driver) sax.Driver { return saxtest.NewStdDriver(strings.NewReader(nameIDDoc)) },
			"unstamped attribute": func(d sax.Driver) sax.Driver { return unstampAttr{d, "k"} },
		} {
			if _, _, err := evalVia(t, e, ms.union, nameIDDoc, twigm.Options{}, wrap); !errors.Is(err, twigm.ErrNoNameID) {
				t.Fatalf("%+v, %s: err %v, want ErrNoNameID", cfg, name, err)
			}
		}
		got, gotStats := evalPoisoned(t, e, ms.union, nameIDDoc, twigm.Options{})
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%+v: after a refusal the scanner delivers\n%+v %+v\nwant\n%+v %+v", cfg, got, gotStats, want, wantStats)
		}
	}
}
