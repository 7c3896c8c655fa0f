package twigm

import (
	"strings"
	"testing"

	"repro/internal/sax/saxtest"
	"repro/internal/xmlscan"
)

// fragments runs query over doc and returns emitted values (unordered
// mode), asserting no error.
func fragments(t *testing.T, doc, query string) []string {
	t.Helper()
	prog := MustCompile(query)
	results, _, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Values(results)
}

func TestRecorderSelfClose(t *testing.T) {
	got := fragments(t, "<r><a/></r>", "//a")
	if len(got) != 1 || got[0] != "<a/>" {
		t.Fatalf("got %q", got)
	}
}

func TestRecorderAttrsPreserved(t *testing.T) {
	got := fragments(t, `<r><a b="1" c="x &amp; y"/></r>`, "//a")
	if got[0] != `<a b="1" c="x &amp; y"/>` {
		t.Fatalf("got %q", got[0])
	}
}

func TestRecorderNestedFragments(t *testing.T) {
	// //a on nested a's: outer fragment contains inner, both correct.
	got := fragments(t, "<r><a>x<a>y</a>z</a></r>", "//a")
	if len(got) != 2 {
		t.Fatalf("got %q", got)
	}
	if got[0] != "<a>x<a>y</a>z</a>" || got[1] != "<a>y</a>" {
		t.Fatalf("got %q", got)
	}
}

func TestRecorderTextEscaping(t *testing.T) {
	got := fragments(t, "<r><a>1 &lt; 2 &amp; 3 &gt; 2</a></r>", "//a")
	if got[0] != "<a>1 &lt; 2 &amp; 3 &gt; 2</a>" {
		t.Fatalf("got %q", got[0])
	}
}

func TestRecorderCDATAContent(t *testing.T) {
	// CDATA content is plain text in the data model: it re-escapes on
	// serialization.
	got := fragments(t, "<r><a><![CDATA[<raw>&stuff;]]></a></r>", "//a")
	if got[0] != "<a>&lt;raw&gt;&amp;stuff;</a>" {
		t.Fatalf("got %q", got[0])
	}
}

func TestRecorderBufferResetsBetweenFragments(t *testing.T) {
	prog := MustCompile("//a")
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 50; i++ {
		doc.WriteString("<a>payload</a>")
	}
	doc.WriteString("</r>")
	_, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc.String()), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// High-water must be one fragment (~16 bytes), not 50 fragments.
	if stats.PeakBufferedBytes > 32 {
		t.Fatalf("peak buffered %d bytes", stats.PeakBufferedBytes)
	}
}

func TestRecorderSharedBufferOverlap(t *testing.T) {
	// Overlapping recordings share one buffer; peak is the outer
	// fragment's length, not the sum of both.
	doc := "<r><a><a>abcdefghij</a></a></r>"
	prog := MustCompile("//a")
	results, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	outer := len(Values(results)[0])
	if stats.PeakBufferedBytes > outer {
		t.Fatalf("peak %d > outer fragment %d: buffer not shared", stats.PeakBufferedBytes, outer)
	}
}

func TestRecorderDiscardedCandidateFreesSlot(t *testing.T) {
	// Candidates under a's without p are discarded; the recorder must
	// reset its buffer once nothing is recording.
	doc := "<r>" + strings.Repeat("<a><big>xxxxxxxxxxxxxxxxxxxxxxxx</big></a>", 20) + "<a><big>y</big><p/></a></r>"
	prog := MustCompile("//a[p]/big")
	results, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || Values(results)[0] != "<big>y</big>" {
		t.Fatalf("results %q", Values(results))
	}
	if stats.CandidatesDropped != 20 {
		t.Fatalf("dropped = %d", stats.CandidatesDropped)
	}
	if stats.PeakBufferedBytes > 64 {
		t.Fatalf("peak buffered %d", stats.PeakBufferedBytes)
	}
}

func TestRecorderDeepFragment(t *testing.T) {
	const n = 100
	doc := "<r>" + strings.Repeat("<x>", n) + strings.Repeat("</x>", n) + "</r>"
	got := fragments(t, doc, "/r/x")
	want := strings.Repeat("<x>", n-1) + "<x/>" + strings.Repeat("</x>", n-1)
	if got[0] != want {
		t.Fatalf("deep fragment mangled: %d bytes vs %d", len(got[0]), len(want))
	}
}

func TestValueCandidatesSkipRecorder(t *testing.T) {
	prog := MustCompile("//a/@id")
	_, stats, err := Collect(prog, saxtest.PoisonDriver(xmlscan.NewScannerWith(strings.NewReader(`<r><a id="7"><huge>payload</huge></a></r>`), prog.Symbols())), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakBufferedBytes != 0 {
		t.Fatalf("attribute results must not buffer fragments: %d", stats.PeakBufferedBytes)
	}
}

func TestOrderedBufFlushesPrefix(t *testing.T) {
	// White-box: resolve out of order; delivery must follow seq order.
	r := &Run{opts: Options{Ordered: true}}
	var delivered []int64
	r.opts.EmitFrom = func(_ int, res Result) error {
		delivered = append(delivered, res.Seq)
		return nil
	}
	o := &r.ordered
	for seq := int64(0); seq < 4; seq++ {
		o.expect(seq)
	}
	r.release(2, &candidate{seq: 2})
	r.release(1, nil) // discarded
	if len(delivered) != 0 {
		t.Fatalf("premature delivery: %v", delivered)
	}
	r.release(0, &candidate{seq: 0})
	// 0,1,2 now resolved: 0 and 2 deliver, 1 was dropped.
	if len(delivered) != 2 || delivered[0] != 0 || delivered[1] != 2 {
		t.Fatalf("delivered %v", delivered)
	}
	if err := o.checkDrained(); err == nil {
		t.Fatal("seq 3 outstanding; drain check must fail")
	}
	r.release(3, &candidate{seq: 3})
	if err := o.checkDrained(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 3 {
		t.Fatalf("delivered %v", delivered)
	}
}
