package sax_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

// trace renders the events the reference producer, saxtest.StdDriver,
// delivers for doc: the event model as every front-end is held to it.
func trace(t *testing.T, doc string) ([]string, error) {
	t.Helper()
	var out []string
	err := saxtest.NewStdDriver(strings.NewReader(doc)).Run(sax.PerEvent(func(ev *sax.Event) error {
		out = append(out, fmt.Sprintf("%v|%s|%d|%q", ev.Kind, ev.Name, ev.Depth, ev.Text))
		return nil
	}))
	return out, err
}

func TestStdDriverBasic(t *testing.T) {
	got, err := trace(t, "<a>x<b/>y</a>")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`StartDocument||0|""`,
		`StartElement|a|1|""`,
		`Text||2|"x"`,
		`StartElement|b|2|""`,
		`EndElement|b|2|""`,
		`Text||2|"y"`,
		`EndElement|a|1|""`,
		`EndDocument||0|""`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestStdDriverDepths(t *testing.T) {
	got, err := trace(t, "<a><b><c>deep</c></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != `StartElement|c|3|""` || got[4] != `Text||4|"deep"` {
		t.Fatalf("got %v", got)
	}
}

func TestStdDriverCoalescesCDATA(t *testing.T) {
	got, err := trace(t, "<a>x<![CDATA[y]]>z</a>")
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != `Text||2|"xyz"` {
		t.Fatalf("CDATA not coalesced: %v", got)
	}
}

func TestStdDriverCommentSplitsText(t *testing.T) {
	got, err := trace(t, "<a>x<!--c-->y</a>")
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != `Text||2|"x"` || got[3] != `Text||2|"y"` {
		t.Fatalf("comment handling: %v", got)
	}
}

func TestStdDriverErrors(t *testing.T) {
	for _, doc := range []string{"<a><b></a>", "<a>", "junk<a/>", "<a/><b/>", "<a/>trail", ""} {
		if _, err := trace(t, doc); err == nil {
			t.Errorf("doc %q: expected error", doc)
		}
	}
}

func TestStdDriverAttrs(t *testing.T) {
	var attrs []sax.Attr
	err := saxtest.NewStdDriver(strings.NewReader(`<a x="1" y="2&amp;3"/>`)).Run(sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement {
			attrs = append(attrs, ev.Attrs...)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0] != (sax.Attr{Name: "x", Value: "1", Local: "x"}) || attrs[1] != (sax.Attr{Name: "y", Value: "2&3", Local: "y"}) {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestGetAttr(t *testing.T) {
	attrs := []sax.Attr{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}}
	if v, ok := sax.GetAttr(attrs, "b"); !ok || v != "2" {
		t.Fatalf("GetAttr(b) = %q, %v", v, ok)
	}
	if _, ok := sax.GetAttr(attrs, "z"); ok {
		t.Fatal("GetAttr(z) should miss")
	}
	if _, ok := sax.GetAttr(nil, "a"); ok {
		t.Fatal("GetAttr(nil) should miss")
	}
}

func TestKindString(t *testing.T) {
	names := map[sax.Kind]string{
		sax.StartDocument: "StartDocument",
		sax.StartElement:  "StartElement",
		sax.EndElement:    "EndElement",
		sax.Text:          "Text",
		sax.EndDocument:   "EndDocument",
		sax.Kind(99):      "Kind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestHandlerErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	err := saxtest.NewStdDriver(strings.NewReader("<a><b/><c/></a>")).Run(sax.PerEvent(func(ev *sax.Event) error {
		n++
		if ev.Kind == sax.StartElement && ev.Name == "b" {
			return boom
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n != 3 { // StartDocument, <a>, <b>
		t.Fatalf("handler called %d times", n)
	}
}
