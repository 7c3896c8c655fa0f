package integration

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
)

// The ID-less dispatch oracle. A front-end without a symbol table stamps no
// event with a name ID (sax.SymNone), so the engine and its machines resolve
// names from the event's strings instead of its IDs. Every evaluation here
// runs on one engine twice: as production runs it, on the session's scanner,
// and on saxtest's encoding/xml front-end with no table. Both must deliver the
// same emission sequence (Value, Seq, NodeOffset, ConfirmedAt, DeliveredAt,
// and the order across machines) and end with the same error. Statistics may
// differ: an event without routing information reaches every machine.

// idless is the reference arm's front-end: the encoding/xml reader over doc,
// interning nothing, in place of the session's scanner.
func idless(doc string) func(sax.Driver) sax.Driver {
	return func(sax.Driver) sax.Driver { return saxtest.NewStdDriver(strings.NewReader(doc)) }
}

// assertIDLessAgrees evaluates sources over doc on the scanner and on the
// ID-less front-end, with prefix sharing and without, and fails on any
// difference in what they emit.
func assertIDLessAgrees(t *testing.T, name string, sources []string, doc string, opts twigm.Options) {
	t.Helper()
	ms := parseMachines(t, sources)
	for _, cfg := range []engine.Config{{}, {DisablePrefixSharing: true}} {
		e := mustEngineOf(t, cfg, ms.branches)
		want, _, wantErr := evalVia(t, e, ms.union, doc, opts, saxtest.PoisonDriver)
		got, _, gotErr := evalVia(t, e, ms.union, doc, opts, idless(doc))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %+v: the ID-less front-end changes the error\nqueries %q\ndoc %q\nscanner  %v\nID-less  %v", name, cfg, sources, doc, wantErr, gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: the ID-less front-end changes the emission sequence\nqueries %q\ndoc %q\nscanner  %+v\nID-less  %+v", name, cfg, sources, doc, want, got)
		}
	}
}

// TestIDLessDispatchAgrees holds ID-less dispatch to the scanner on the
// shapes whose names it resolves: element, attribute and prefixed name tests,
// '*' steps, text() steps, shared prefixes and value groups.
func TestIDLessDispatchAgrees(t *testing.T) {
	sources := []string{
		"//a", "//r//a/b", "//a[@k = '1']/b", "//a/@k", "//@j", "//*[@k]", "//r/*",
		"//p:a/b", "//a/@p:k", "//q:c", "//a/text()", "//b[text() = 'x']",
		"//r//a[b]/c", "//r//a/c[. = 't']", "//r//a/c[. = 'u']", "//a | //b",
	}
	doc := `<r xmlns:p='u' xmlns:q='v'><a k='1' j='2'><b>x</b><c>t</c></a>` +
		`<p:a><b/></p:a><a p:k='3'><c>u</c><a><b>y</b></a></a><q:c>z</q:c><s><a/></s></r>`
	for _, opts := range []twigm.Options{{}, {Ordered: true}} {
		assertIDLessAgrees(t, fmt.Sprintf("ordered=%v", opts.Ordered), sources, doc, opts)
		for _, src := range sources {
			assertIDLessAgrees(t, fmt.Sprintf("%q ordered=%v", src, opts.Ordered), []string{src}, doc, opts)
		}
	}
}
