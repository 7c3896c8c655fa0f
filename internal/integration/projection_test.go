package integration

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
	"repro/internal/twigm"
	"repro/internal/xmlscan"
)

// The projection oracle. A session's scanner queues only the events its
// epoch's machines can observe (internal/engine/projection.go); what it omits
// must be invisible. Every evaluation here runs twice on one engine: as
// production runs it, projected, and with the scanner's projection cleared, so
// that every scanned event reaches the engine. Both arms run through
// saxtest.PoisonDriver, and must agree byte for byte: the emission sequence
// (Value, Seq, NodeOffset, ConfirmedAt, DeliveredAt, and the order across
// machines), every machine's statistics, the scan's counters and the error.

// unprojected is the reference arm's front-end: the session's scanner with
// its projection cleared, poisoned like the projected arm's.
func unprojected(d sax.Driver) sax.Driver {
	d.(*xmlscan.Scanner).Project(nil)
	return saxtest.PoisonDriver(d)
}

// assertProjectionInvisible evaluates sources over doc projected and
// unprojected, with prefix sharing and without (where the trie names nothing
// and every step is a machine's), fails on any difference, and returns the
// error both arms ended with.
func assertProjectionInvisible(t *testing.T, name string, sources []string, doc string, opts twigm.Options) error {
	t.Helper()
	ms := parseMachines(t, sources)
	var err error
	for _, cfg := range []engine.Config{{}, {DisablePrefixSharing: true}} {
		e := mustEngineOf(t, cfg, ms.branches)
		got, gotStats, gotErr := evalVia(t, e, ms.union, doc, opts, saxtest.PoisonDriver)
		want, wantStats, wantErr := evalVia(t, e, ms.union, doc, opts, unprojected)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %+v: projection changes the error\nqueries %q\ndoc %q\nprojected   %v\nunprojected %v", name, cfg, sources, doc, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: projection changes the emission sequence\nqueries %q\ndoc %q\nprojected   %+v\nunprojected %+v", name, cfg, sources, doc, got, want)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s %+v: projection changes the statistics\nqueries %q\ndoc %q\nprojected   %+v\nunprojected %+v", name, cfg, sources, doc, gotStats, wantStats)
		}
		err = gotErr
	}
	return err
}

// TestProjectionInvisible holds projection to the unprojected stream on the
// shapes where omitting an event could go wrong: value roots that close as
// they open, nest in each other or sit inside dropped markup; elements kept
// only for an attribute; prefixed names; text() steps, shared and not; value
// comparisons; document-order delivery.
func TestProjectionInvisible(t *testing.T) {
	cases := []struct {
		name    string
		sources []string
		doc     string
	}{
		{"self-closing value root", []string{"//a/b", "//a[b]/c"},
			`<r><x><a><b/><y/><b k='1'/><c/></a></x><a><b></b><c>t</c></a></r>`},
		{"value root in value root", []string{"//b", "//b[. = 'xy']", "//c//b"},
			`<r><b>x<c><b>y</b></c></b><d><c><b>x<b>y</b></b></c></d><b/></r>`},
		{"value root under dropped markup", []string{"//r//b[. = 'q']/@k"},
			`<r><z><y>junk<b k='1'>q</b></y>noise</z><b k='2'>q<w>junk</w></b></r>`},
		{"kept for an attribute", []string{"//@k", "//a//@k", "//a[@k = '2']"},
			`<r><x k='1'><y k='3'/></x><a><z k='2'><w/></z></a><a k='2'/><v j='1'/></r>`},
		{"prefixed names", []string{"//p:a/b", "//a/@p:k", "//q:c"},
			`<r xmlns:p='u' xmlns:q='v'><p:a><b>1</b></p:a><a p:k='2' k='3'><b/></a><q:c>x</q:c><c/></r>`},
		{"text() steps", []string{"//a/text()", "//a//text()", "/r/b/text()", "//b[text() = 'x']"},
			`<r><a>1<z>2</z>3</a><b>x</b><z><a>4</a></z><b>y<a/></b></r>`},
		{"text() predicates", []string{"//a[text() = 'x']/c", "//b[.//text() = 'y']/@k"},
			`<r><a>x<c/></a><a><z>x</z><c>1</c></a><b k='1'><z>y</z></b><b k='2'>z</b></r>`},
		{"value comparisons", []string{"//a[b = 'x']/c", "//a[. = 'xy']", "//a[b > 1]/@id"},
			`<r><a id='1'><b>x</b><c>1</c></a><a id='2'>x<z>y</z></a><a id='3'><b>2</b><z><c/></z></a></r>`},
		{"a union and a value group", []string{"//a/c | //b", "//d[. = '1']", "//d[. = '2']", "//r/d[. = '1']"},
			`<r><a><c>x</c></a><b/><z><d>1</d><d>2</d></z><d>1</d></r>`},
		{"no machine observes anything", []string{"//nowhere"},
			`<r><a>x</a><b k='1'/></r>`},
		{"whitespace and entities", []string{"//a"},
			"<r>\n <z> &amp; <![CDATA[c]]> </z>\n <a>&lt;x&gt;</a>\r\n</r>"},
	}
	for _, c := range cases {
		for _, opts := range []twigm.Options{{}, {Ordered: true}, {CountOnly: true}} {
			if err := assertProjectionInvisible(t, fmt.Sprintf("%s %+v", c.name, opts), c.sources, c.doc, opts); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}

// TestProjectionKeepsSyntaxErrors: malformed input inside a region no
// machine observes fails exactly as it does with every event scanned into the
// stream — the same message at the same offset.
func TestProjectionKeepsSyntaxErrors(t *testing.T) {
	for _, doc := range []string{
		`<r><z><y></z></y><a/></r>`,                 // mismatched end tag
		`<r><z k='&bogus;'/><a/></r>`,               // bad entity in an attribute
		"<r><z>  \x01  </z><a/></r>",                // illegal byte in a whitespace run
		"<r><z>\n\t<y/>\x0b</z><a/></r>",            // the same, after a tag
		`<r><z k='1' k='2'/><a/></r>`,               // duplicate attribute
		`<r><z></r>`,                                // unclosed element
		`<r><a>x</a><z>` + "\xff" + `</z></r>`,      // invalid UTF-8
		`<r><z><y k='<'/></z><a/></r>`,              // '<' in an attribute value
		`<r><z>text &#0; more</z><a/></r>`,          // illegal character reference
		`<r><z></z><a/></r><r/>`,                    // a second root
		`<r><z>x</z><a>y</a></r>trailing`,           // text after the root
		`<r><z xmlns:p='u'><p:y></p:x></z><a/></r>`, // prefixed mismatch
		`<r><z><y><x><w/></x></y></z><a></b></r>`,   // mismatch at a kept tag
		`<r><z>]]></z><a/></r>`,                     // ']]>' in text
		`<r><z><!-- x -- y --></z><a/></r>`,         // '--' in a comment
		`<r><z><?pi?>` + "\x00" + `</z><a/></r>`,    // NUL after a PI
		`<r><z k=v/><a/></r>`,                       // unquoted attribute
		`<r><z><y/></z><a/>`,                        // EOF with the root open
	} {
		err := assertProjectionInvisible(t, "syntax error", []string{"//a", "//a/text()"}, doc, twigm.Options{})
		if _, ok := err.(*xmlscan.SyntaxError); !ok {
			t.Fatalf("%q: want a syntax error, got %v", doc, err)
		}
	}
}
