package xmlscan

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

// collect runs the scanner over doc and returns a compact textual trace of
// the events, or the error.
func collect(t *testing.T, doc string) ([]string, error) {
	t.Helper()
	var out []string
	h := sax.PerEvent(func(ev *sax.Event) error {
		switch ev.Kind {
		case sax.StartDocument:
			out = append(out, "doc(")
		case sax.EndDocument:
			out = append(out, ")doc")
		case sax.StartElement:
			s := fmt.Sprintf("<%s d%d", ev.Name, ev.Depth)
			for _, a := range ev.Attrs {
				s += fmt.Sprintf(" %s=%q", a.Name, a.Value)
			}
			out = append(out, s+">")
		case sax.EndElement:
			out = append(out, fmt.Sprintf("</%s d%d>", ev.Name, ev.Depth))
		case sax.Text:
			out = append(out, fmt.Sprintf("text(d%d,%q)", ev.Depth, ev.Text))
		}
		return nil
	})
	err := NewScanner(strings.NewReader(doc)).Run(saxtest.Poison(h))
	return out, err
}

func mustCollect(t *testing.T, doc string) []string {
	t.Helper()
	out, err := collect(t, doc)
	if err != nil {
		t.Fatalf("scan %q: %v", doc, err)
	}
	return out
}

func assertTrace(t *testing.T, doc string, want ...string) {
	t.Helper()
	got := mustCollect(t, doc)
	want = append(append([]string{"doc("}, want...), ")doc")
	if len(got) != len(want) {
		t.Fatalf("scan %q:\n got %v\nwant %v", doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan %q: event %d = %q, want %q\nfull: %v", doc, i, got[i], want[i], got)
		}
	}
}

func TestSimpleElement(t *testing.T) {
	assertTrace(t, "<a></a>", "<a d1>", "</a d1>")
}

func TestNestedElements(t *testing.T) {
	assertTrace(t, "<a><b><c/></b></a>",
		"<a d1>", "<b d2>", "<c d3>", "</c d3>", "</b d2>", "</a d1>")
}

func TestTextContent(t *testing.T) {
	assertTrace(t, "<a>hello</a>", "<a d1>", `text(d2,"hello")`, "</a d1>")
}

func TestTextDepths(t *testing.T) {
	assertTrace(t, "<a>x<b>y</b>z</a>",
		"<a d1>", `text(d2,"x")`, "<b d2>", `text(d3,"y")`, "</b d2>", `text(d2,"z")`, "</a d1>")
}

func TestAttributes(t *testing.T) {
	assertTrace(t, `<a id="1" name='n &amp; m'/>`,
		`<a d1 id="1" name="n & m">`, "</a d1>")
}

func TestAttributeWhitespace(t *testing.T) {
	assertTrace(t, "<a  id = \"1\"\n\tb='2' ></a>",
		`<a d1 id="1" b="2">`, "</a d1>")
}

func TestSelfClosing(t *testing.T) {
	assertTrace(t, "<a><b/></a>", "<a d1>", "<b d2>", "</b d2>", "</a d1>")
}

func TestEntities(t *testing.T) {
	assertTrace(t, "<a>&lt;&gt;&amp;&apos;&quot;</a>",
		"<a d1>", `text(d2,"<>&'\"")`, "</a d1>")
}

func TestCharRefs(t *testing.T) {
	assertTrace(t, "<a>&#65;&#x42;&#x1F600;</a>",
		"<a d1>", fmt.Sprintf("text(d2,%q)", "AB\U0001F600"), "</a d1>")
}

func TestCDATA(t *testing.T) {
	assertTrace(t, "<a><![CDATA[<not>&markup;]]></a>",
		"<a d1>", `text(d2,"<not>&markup;")`, "</a d1>")
}

// CDATA must coalesce with surrounding character data into one text node.
func TestCDATACoalesces(t *testing.T) {
	assertTrace(t, "<a>x<![CDATA[y]]>z</a>",
		"<a d1>", `text(d2,"xyz")`, "</a d1>")
}

func TestCDATAEmpty(t *testing.T) {
	assertTrace(t, "<a><![CDATA[]]>v</a>", "<a d1>", `text(d2,"v")`, "</a d1>")
}

func TestCDATAWithBrackets(t *testing.T) {
	assertTrace(t, "<a><![CDATA[a]b]]c]]></a>",
		"<a d1>", `text(d2,"a]b]]c")`, "</a d1>")
}

// Comments split text runs (they are distinct nodes in the XPath data model).
func TestCommentSplitsText(t *testing.T) {
	assertTrace(t, "<a>x<!-- c -->y</a>",
		"<a d1>", `text(d2,"x")`, `text(d2,"y")`, "</a d1>")
}

func TestCommentOutsideRoot(t *testing.T) {
	assertTrace(t, "<!-- head --><a/><!-- tail -->", "<a d1>", "</a d1>")
}

func TestProcessingInstruction(t *testing.T) {
	assertTrace(t, `<?xml version="1.0"?><a><?pi data?></a>`, "<a d1>", "</a d1>")
}

func TestDoctype(t *testing.T) {
	assertTrace(t, `<!DOCTYPE book SYSTEM "book.dtd"><a/>`, "<a d1>", "</a d1>")
}

func TestDoctypeInternalSubset(t *testing.T) {
	assertTrace(t, `<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> <!ENTITY e "x>y"> ]><a/>`,
		"<a d1>", "</a d1>")
}

func TestWhitespaceOutsideRoot(t *testing.T) {
	assertTrace(t, "\n  <a/>\n\t ", "<a d1>", "</a d1>")
}

func TestUTF8Names(t *testing.T) {
	assertTrace(t, "<héllo>ü</héllo>", "<héllo d1>", `text(d2,"ü")`, "</héllo d1>")
}

func TestLoneGTInText(t *testing.T) {
	assertTrace(t, "<a>1 > 0</a>", "<a d1>", `text(d2,"1 > 0")`, "</a d1>")
}

func TestDeepNesting(t *testing.T) {
	const n = 200
	doc := strings.Repeat("<x>", n) + strings.Repeat("</x>", n)
	got := mustCollect(t, doc)
	if len(got) != 2*n+2 {
		t.Fatalf("got %d events, want %d", len(got), 2*n+2)
	}
	if got[n] != fmt.Sprintf("<x d%d>", n) {
		t.Fatalf("innermost start = %q", got[n])
	}
}

func TestLargeTextTokenGrowsBuffer(t *testing.T) {
	big := strings.Repeat("lorem ipsum ", 20000) // ~240KB, > DefaultBufferSize
	got := mustCollect(t, "<a>"+big+"</a>")
	want := fmt.Sprintf("text(d2,%q)", big)
	if got[2] != want {
		t.Fatalf("large text mangled (len %d vs %d)", len(got[2]), len(want))
	}
}

func TestOffsets(t *testing.T) {
	doc := `<a><b id="1"/></a>`
	var offs []int64
	h := sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement {
			offs = append(offs, ev.Offset)
		}
		return nil
	})
	if err := NewScanner(strings.NewReader(doc)).Run(h); err != nil {
		t.Fatal(err)
	}
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 3 {
		t.Fatalf("offsets = %v, want [0 3]", offs)
	}
}

func TestSingleUse(t *testing.T) {
	s := NewScanner(strings.NewReader("<a/>"))
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	if err := s.Run(nop); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nop); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestHandlerErrorAborts(t *testing.T) {
	wantErr := errors.New("stop")
	n := 0
	h := sax.PerEvent(func(ev *sax.Event) error {
		n++
		if ev.Kind == sax.StartElement {
			return wantErr
		}
		return nil
	})
	err := NewScanner(strings.NewReader("<a><b/></a>")).Run(h)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if n != 2 { // StartDocument + <a>
		t.Fatalf("handler called %d times, want 2", n)
	}
}

// --- error cases ---

func wantSyntaxError(t *testing.T, doc, substr string) {
	t.Helper()
	_, err := collect(t, doc)
	if err == nil {
		t.Fatalf("scan %q: expected error containing %q, got nil", doc, substr)
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("scan %q: error %v is not a *SyntaxError", doc, err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("scan %q: error %q does not contain %q", doc, err, substr)
	}
}

func TestErrMismatchedTags(t *testing.T)  { wantSyntaxError(t, "<a><b></a></b>", "mismatched") }
func TestErrUnclosedRoot(t *testing.T)    { wantSyntaxError(t, "<a><b></b>", "still open") }
func TestErrMultipleRoots(t *testing.T)   { wantSyntaxError(t, "<a/><b/>", "multiple root") }
func TestErrNoRoot(t *testing.T)          { wantSyntaxError(t, "  \n ", "no root") }
func TestErrTextOutsideRoot(t *testing.T) { wantSyntaxError(t, "junk<a/>", "outside root") }
func TestErrTrailingText(t *testing.T)    { wantSyntaxError(t, "<a/>junk", "outside root") }
func TestErrUnquotedAttr(t *testing.T)    { wantSyntaxError(t, "<a id=1/>", "quoted") }
func TestErrDuplicateAttr(t *testing.T) {
	wantSyntaxError(t, `<a x="1" x="2"/>`, "duplicate attribute")
}
func TestErrBadEntity(t *testing.T)         { wantSyntaxError(t, "<a>&nope;</a>", "unknown entity") }
func TestErrBadCharRef(t *testing.T)        { wantSyntaxError(t, "<a>&#zz;</a>", "invalid digit") }
func TestErrEmptyCharRef(t *testing.T)      { wantSyntaxError(t, "<a>&#;</a>", "character reference") }
func TestErrHugeCharRef(t *testing.T)       { wantSyntaxError(t, "<a>&#x110000;</a>", "out of range") }
func TestErrUnterminatedTag(t *testing.T)   { wantSyntaxError(t, "<a", "unexpected EOF") }
func TestErrUnterminatedCDATA(t *testing.T) { wantSyntaxError(t, "<a><![CDATA[x</a>", "CDATA") }
func TestErrCommentDoubleDash(t *testing.T) { wantSyntaxError(t, "<a><!-- a -- b --></a>", "--") }
func TestErrUnmatchedEnd(t *testing.T)      { wantSyntaxError(t, "</a>", "unmatched end tag") }
func TestErrLTInAttr(t *testing.T)          { wantSyntaxError(t, `<a x="<"/>`, "not allowed") }
func TestErrBadNameStart(t *testing.T)      { wantSyntaxError(t, "<1a/>", "invalid name") }

func TestErrEmptyInput(t *testing.T) { wantSyntaxError(t, "", "no root") }

// errReader fails after n bytes, to exercise read-error propagation.
type errReader struct {
	s string
	n int
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.n >= len(r.s) {
		return 0, fmt.Errorf("disk on fire")
	}
	// Dribble one byte at a time to exercise buffer refills.
	p[0] = r.s[r.n]
	r.n++
	return 1, nil
}

func TestReadErrorPropagates(t *testing.T) {
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	err := NewScanner(&errReader{s: "<a><b></b>"}).Run(nop)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		// The scanner may also report the open-elements syntax error;
		// either is acceptable as long as it fails.
		if err == nil {
			t.Fatal("expected error")
		}
	}
}

func TestOneByteReads(t *testing.T) {
	doc := `<root a="v"><child>text &amp; more</child><!--c--><kid/></root>`
	var a, b []string
	ha := sax.PerEvent(func(ev *sax.Event) error { a = append(a, fmt.Sprint(*ev)); return nil })
	hb := sax.PerEvent(func(ev *sax.Event) error { b = append(b, fmt.Sprint(*ev)); return nil })
	if err := NewScanner(strings.NewReader(doc)).Run(ha); err != nil {
		t.Fatal(err)
	}
	if err := NewScanner(iotest1(doc)).Run(hb); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// iotest1 returns a reader that yields one byte per Read.
func iotest1(s string) io.Reader { return &oneByteReader{s: s} }

type oneByteReader struct {
	s string
	n int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.n >= len(r.s) {
		return 0, io.EOF
	}
	p[0] = r.s[r.n]
	r.n++
	return 1, nil
}

func TestPaperFigure1(t *testing.T) {
	// The 17-line sample document from figure 1 of the paper.
	doc := datagen.PaperFigure1
	var starts []string
	h := sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement {
			starts = append(starts, fmt.Sprintf("%s@%d", ev.Name, ev.Depth))
		}
		return nil
	})
	if err := NewScanner(strings.NewReader(doc)).Run(h); err != nil {
		t.Fatal(err)
	}
	want := []string{"book@1", "section@2", "section@3", "section@4",
		"table@5", "table@6", "table@7", "cell@8", "position@6", "author@3"}
	if len(starts) != len(want) {
		t.Fatalf("starts = %v", starts)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("start %d = %q, want %q", i, starts[i], want[i])
		}
	}
}

// collectText parses doc and returns every Text event's content.
func collectText(t *testing.T, doc string) []string {
	t.Helper()
	var out []string
	h := sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.Text {
			out = append(out, strings.Clone(ev.Text))
		}
		return nil
	})
	if err := NewScanner(strings.NewReader(doc)).Run(saxtest.Poison(h)); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestUTF8BOMSkipped(t *testing.T) {
	got := collectText(t, "\xEF\xBB\xBF<r>x</r>")
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("text = %q", got)
	}
	// A reused scanner re-checks the BOM per document.
	s := NewScanner(strings.NewReader("\xEF\xBB\xBF<r>a</r>"))
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	if err := s.Run(nop); err != nil {
		t.Fatal(err)
	}
	s.Reset(strings.NewReader("\xEF\xBB\xBF<r>b</r>"))
	if err := s.Run(nop); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestUTF16BOMRejected(t *testing.T) {
	for name, doc := range map[string]string{
		"UTF-16BE": "\xFE\xFF\x00<\x00r",
		"UTF-16LE": "\xFF\xFE<\x00r\x00",
		"UTF-32BE": "\x00\x00\xFE\xFF\x00\x00\x00<",
	} {
		err := NewScanner(strings.NewReader(doc)).Run(sax.PerEvent(func(*sax.Event) error { return nil }))
		if err == nil || !strings.Contains(err.Error(), "unsupported encoding") {
			t.Errorf("%s: err = %v, want unsupported-encoding error", name, err)
		}
	}
}

func TestLineEndingNormalization(t *testing.T) {
	// XML 1.0 §2.11: \r\n and lone \r normalize to \n in text, CDATA and
	// attribute values; character references are exempt.
	got := collectText(t, "<r>a\r\nb\rc<![CDATA[d\r\ne\rf]]>\rg&#13;h</r>")
	want := []string{"a\nb\ncd\ne\nf\ng\rh"}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("text = %q, want %q", got, want)
	}
	var attr string
	h := sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement && len(ev.Attrs) > 0 {
			attr = strings.Clone(ev.Attrs[0].Value)
		}
		return nil
	})
	if err := NewScanner(strings.NewReader("<r k='a\r\nb\rc&#13;d'/>")).Run(saxtest.Poison(h)); err != nil {
		t.Fatal(err)
	}
	if attr != "a\nb\nc\rd" {
		t.Fatalf("attr = %q", attr)
	}
}

func TestQNameSplitOnEvents(t *testing.T) {
	type rec struct {
		name, prefix, local string
		id                  int32
	}
	var elems []rec
	var attrs []rec
	h := sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement {
			elems = append(elems, rec{ev.Name, ev.Prefix, ev.Local, ev.NameID})
			for i := range ev.Attrs {
				a := &ev.Attrs[i]
				attrs = append(attrs, rec{a.Name, a.Prefix, a.Local, a.NameID})
			}
		}
		return nil
	})
	syms := sax.NewSymbols()
	aID := syms.Intern("a")
	kID := syms.Intern("k")
	doc := `<r xmlns:p='u'><p:a p:k='1' k='2'/></r>`
	if err := NewScannerWith(strings.NewReader(doc), syms).Run(h); err != nil {
		t.Fatal(err)
	}
	wantElems := []rec{{"r", "", "r", sax.SymUnknown}, {"p:a", "p", "a", aID}}
	wantAttrs := []rec{{"xmlns:p", "xmlns", "p", sax.SymUnknown}, {"p:k", "p", "k", kID}, {"k", "", "k", kID}}
	if fmt.Sprint(elems) != fmt.Sprint(wantElems) {
		t.Fatalf("elems = %v, want %v", elems, wantElems)
	}
	if fmt.Sprint(attrs) != fmt.Sprint(wantAttrs) {
		t.Fatalf("attrs = %v, want %v", attrs, wantAttrs)
	}
}

// stallReader hands out one scripted chunk per Read and records, at every
// call, how many events the handler had received by then.
type stallReader struct {
	chunks    []string
	delivered *int
	seen      []int
}

func (r *stallReader) Read(p []byte) (int, error) {
	r.seen = append(r.seen, *r.delivered)
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	r.chunks = r.chunks[1:]
	return n, nil
}

// TestEventsDeliveredBeforeRead: the scanner never waits on its input while
// it holds completed events. Whatever the bytes read so far prove has reached
// the handler by the time the next Read is issued — wherever the chunk
// boundary falls: on a token boundary, inside a tag, inside a text run.
func TestEventsDeliveredBeforeRead(t *testing.T) {
	delivered := 0
	r := &stallReader{
		chunks:    []string{"<a><b>1</b>", "<c k='v", "'/>te", "xt</a>"},
		delivered: &delivered,
	}
	h := sax.PerEvent(func(*sax.Event) error { delivered++; return nil })
	if err := NewScanner(r).Run(saxtest.Poison(h)); err != nil {
		t.Fatal(err)
	}
	// Before each Read: StartDocument; + <a> <b> "1" </b>; nothing new
	// (the tag is incomplete); + <c> </c> (the text run is incomplete);
	// + "text" </a>, at the Read that reports EOF.
	want := []int{1, 5, 5, 7, 9}
	if fmt.Sprint(r.seen) != fmt.Sprint(want) {
		t.Fatalf("events delivered before each Read = %v, want %v", r.seen, want)
	}
	if delivered != 10 {
		t.Fatalf("%d events in all, want 10", delivered)
	}
}

// TestHandlerErrorDuringFlushBeforeRead: a handler error raised by the flush
// that precedes a read wins over the syntax error the truncated input would
// otherwise produce, and nothing is delivered after it.
func TestHandlerErrorDuringFlushBeforeRead(t *testing.T) {
	wantErr := errors.New("stop")
	calls := 0
	h := sax.PerEvent(func(ev *sax.Event) error {
		calls++
		if ev.Kind == sax.StartElement {
			return wantErr
		}
		return nil
	})
	delivered := 0
	r := &stallReader{chunks: []string{"<a><b", ">x</b></a>"}, delivered: &delivered}
	err := NewScanner(r).Run(h)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls != 2 { // StartDocument (flushed before the first Read), <a>
		t.Fatalf("handler saw %d events, want 2", calls)
	}
}
