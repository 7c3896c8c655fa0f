package xmlscan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

// FuzzScannerVsStdXML is the native fuzz target differencing the custom
// scanner against encoding/xml: on any input, either both front-ends reject,
// or both accept and produce identical event streams (kind, names, depths,
// text, attributes, offsets). Run the long campaign locally with
//
//	go test -fuzz=FuzzScannerVsStdXML -fuzztime=10m ./internal/xmlscan
//
// CI runs a short smoke (~30s). The seed corpus is the edge-case document
// set of the permanent parser-differential harness.
//
// Two documented differences are outside the oracle's scope (see README
// "XML conformance"):
//
//   - DOCTYPE declarations: the scanner parses internal subsets (collecting
//     <!ENTITY ...> declarations for expansion and validating what it
//     implements), while encoding/xml skips every directive unparsed and
//     has no hook to learn declared entities — both acceptance and entity
//     expansion legitimately differ. Gated on the "<!DOCTYPE"/"<!ENTITY"
//     byte patterns.
//   - Documented strictness: the scanner enforces well-formedness rules
//     encoding/xml skips (today: duplicate attributes, XML 1.0 §3.1
//     uniqueness). A scanner rejection for one of those reasons counts as
//     agreement even when encoding/xml accepts.
func FuzzScannerVsStdXML(f *testing.F) {
	for _, doc := range fuzzSeedDocs() {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		compareFrontEnds(t, doc)
	})
}

// fuzzSeedDocs is the seed corpus: the edge-case documents the differential
// harness pinned plus shapes that have historically diverged between
// parsers.
func fuzzSeedDocs() []string {
	deep := strings.Repeat("<a k='1'>", 40) + "x" + strings.Repeat("</a>", 40)
	return []string{
		`<r><a>x</a><b>y</b></r>`,
		`<r xmlns:p='u'><p:a>x</p:a><a>y</a></r>`,
		`<r xmlns:p='u'><a p:k='1' k='2'>x</a></r>`,
		`<r xmlns='u'><a>x</a><a>y</a></r>`,
		`<r xmlns:p='u'><p:a><b xmlns:q='v'><q:c>z</q:c></b></p:a></r>`,
		"\xEF\xBB\xBF<r><a>1</a><a>2</a></r>",
		"\xEF\xBB\xBF<?xml version=\"1.0\"?><r><a>1</a></r>",
		`<r><a>one<![CDATA[ & two <raw> ]]>three</a></r>`,
		`<r><a k="x&amp;y&#65;&quot;" j='&lt;&gt;'>v</a></r>`,
		`<r><a>one<!-- c -->two</a></r>`,
		`<r><a>one<?pi data?>two</a></r>`,
		`<r><a k='1'/><a></a><a/></r>`,
		"<r>" + deep + "</r>",
		`<?xml version="1.0" encoding="UTF-8"?><r><a>x</a></r>`,
		"<r>\n  <a>x</a>\n  <a>\ty\r\n</a>\n</r>",
		"<r>\r\n<a k='v\r\nw\rz'>one\r\ntwo\rthree</a>\r</r>",
		"<r><a><![CDATA[a\r\nb\rc]]>\r\nd</a></r>",
		"<r><a k='x&#13;y'>p&#13;q</a></r>",
		`<!DOCTYPE r><r><a>x</a></r>`,
		`<r><a>&#x10FFFF;&#xA0;</a></r>`,
		`<r><!-- -- --><a/></r>`,
		`<r><a>]]></a></r>`,
		"<r><élément>x</élément></r>",
		`<r health="100%"><a/></r>`,
		// Seam shapes: with the 16-byte-buffer self-consistency config every
		// one of these straddles reads mid-token — long names, attribute
		// values, CDATA/comment terminators and entity references split
		// across windows, where a tag waits for its end and text streams on.
		"<rrrrrrrrrrrrrrrrrrrrrrrr><aaaaaaaaaaaaaaaaaaa>x</aaaaaaaaaaaaaaaaaaa></rrrrrrrrrrrrrrrrrrrrrrrr>",
		`<r averyveryverylongattrname="a long value that spans several windows easily">x</r>`,
		`<r a="padpadpadpad&amp;padpadpadpad" b='second attribute value'>x</r>`,
		"<r><a>" + strings.Repeat("t", 13) + "<![CDATA[" + strings.Repeat("c", 13) + "]]>" + strings.Repeat("u", 13) + "</a></r>",
		"<r><a>before<!--" + strings.Repeat("-x", 9) + "-->after</a></r>",
		"<r><a>" + strings.Repeat("pad ", 4) + "&#x1F600;" + strings.Repeat(" pad", 4) + "</a></r>",
		"<r><a>] ]] ]]&gt; " + strings.Repeat("]x", 9) + "</a></r>",
		"<r><a   k  =  'spaced equals'   j='2'  >x</a  ></r>",
		"<r>" + strings.Repeat("<a/>", 9) + strings.Repeat("\n", 17) + "</r>",
		"<r><a>text<?pi " + strings.Repeat("d", 21) + "?>more</a></r>",
	}
}

// compareFrontEnds runs both parsers over doc and reports any divergence
// inside the oracle's scope. It also holds the scanner to self-consistency
// across its batching and windowing configurations: batch size {1, default}
// x read buffer {16 bytes, default} must produce identical event streams and
// identical diagnostics. Batch size 1 flushes on every event — each event's
// strings are recycled before the next token is scanned; the tiny buffer
// forces reads (and with them the flush-before-read) inside nearly every
// token: tags that wait for their end (wholeTag), end tags that miss the
// stack-top compare, text runs too long to borrow. Every configuration runs
// over the poisoning sink.
func compareFrontEnds(t *testing.T, doc string) {
	t.Helper()
	custom, cerr := traceScannerEvents(doc, eventBatch, 0)
	for _, cfg := range []struct {
		name    string
		batch   int
		bufSize int
	}{
		{"batch1", 1, 0},
		{"batch_default_buf16", eventBatch, 16},
		{"batch1_buf16", 1, 16},
	} {
		got, gerr := traceScannerEvents(doc, cfg.batch, cfg.bufSize)
		if (gerr == nil) != (cerr == nil) || (gerr != nil && gerr.Error() != cerr.Error()) {
			t.Fatalf("scanner config %s diverges on error:\ndefault: %v\n%s: %v\ndoc: %q",
				cfg.name, cerr, cfg.name, gerr, doc)
		}
		if gerr != nil {
			continue
		}
		if len(got) != len(custom) {
			t.Fatalf("scanner config %s event count diverges: %d vs %d\ndoc: %q", cfg.name, len(got), len(custom), doc)
		}
		for i := range got {
			if got[i] != custom[i] {
				t.Fatalf("scanner config %s event %d diverges:\ndefault: %s\n%s: %s\ndoc: %q",
					cfg.name, i, custom[i], cfg.name, got[i], doc)
			}
		}
	}
	if strings.Contains(doc, "<!DOCTYPE") || strings.Contains(doc, "<!ENTITY") {
		// The scanner parses DOCTYPE internals (entity declarations
		// included); encoding/xml skips them unparsed. Out of oracle
		// scope (the self-consistency checks above still ran).
		return
	}
	std, serr := traceFuzzEvents(saxtest.NewStdDriver(strings.NewReader(doc)))
	if cerr != nil && serr != nil {
		return // both reject: agreement
	}
	if cerr != nil && serr == nil && strings.Contains(cerr.Error(), "duplicate attribute") {
		return // documented strictness: encoding/xml skips the uniqueness check
	}
	if (cerr == nil) != (serr == nil) {
		t.Fatalf("acceptance diverges:\nxmlscan err:      %v\nencoding/xml err: %v\ndoc: %q", cerr, serr, doc)
	}
	if len(custom) != len(std) {
		t.Fatalf("event counts diverge: xmlscan %d, encoding/xml %d\nxmlscan:      %q\nencoding/xml: %q\ndoc: %q",
			len(custom), len(std), custom, std, doc)
	}
	for i := range custom {
		if custom[i] != std[i] {
			t.Fatalf("event %d diverges:\nxmlscan:      %s\nencoding/xml: %s\ndoc: %q", i, custom[i], std[i], doc)
		}
	}
}

// renderFuzzEvent renders one event into a comparable line: kind,
// full/prefix/local names, depth, text, offset, and each attribute's name
// and value. The rendering copies every string, so it is safe for events
// whose strings die when HandleBatch returns.
func renderFuzzEvent(ev *sax.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v|%s|%s|%s|d%d|%q|@%d", ev.Kind, ev.Name, ev.Prefix, ev.Local, ev.Depth, ev.Text, ev.Offset)
	for i := range ev.Attrs {
		a := &ev.Attrs[i]
		fmt.Fprintf(&sb, "|%s/%s/%s=%q", a.Name, a.Prefix, a.Local, a.Value)
	}
	return sb.String()
}

// traceFuzzEvents renders a driver's per-event stream into comparable lines.
func traceFuzzEvents(d sax.Driver) ([]string, error) {
	var out []string
	err := d.Run(sax.PerEvent(func(ev *sax.Event) error {
		out = append(out, renderFuzzEvent(ev))
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// traceScannerEvents runs the scanner over doc in a specific configuration,
// through the poisoning sink: batch is the event-batch size, bufSize a read
// buffer size override (0 = default). In-package access to both is what lets
// the harness force a flush after every event and refill seams inside tokens
// of ordinary test documents.
func traceScannerEvents(doc string, batch, bufSize int) ([]string, error) {
	s := NewScanner(strings.NewReader(doc))
	if bufSize > 0 {
		s.buf = make([]byte, bufSize)
	}
	s.batchLimit = batch
	return traceFuzzEvents(saxtest.PoisonDriver(s))
}

// TestFuzzSeedCorpusAgrees pins the seed corpus as a deterministic
// regression test: every seed must pass the fuzz property in plain `go
// test` runs too.
func TestFuzzSeedCorpusAgrees(t *testing.T) {
	for i, doc := range fuzzSeedDocs() {
		i, doc := i, doc
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			compareFrontEnds(t, doc)
		})
	}
}
