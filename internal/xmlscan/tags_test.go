package xmlscan

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

// tagsGolden holds the event stream and diagnostic of every tagCases entry.
const tagsGolden = "testdata/tags.golden"

type tagCase struct{ name, doc string }

// tagCases are the start and end tags whose events or diagnostics the golden
// file pins: malformed tags, tags cut by EOF at every byte, and valid tags
// with references, line endings, non-ASCII bytes and unusual spacing.
func tagCases() []tagCase {
	cases := []tagCase{
		// Malformed start tags.
		{"unquoted value", `<r><a x=1/></r>`},
		{"missing equals", `<r><a x "1"/></r>`},
		{"missing equals before close", `<r><a x></r>`},
		{"slash then space", `<r><a x="1"/ ></r>`},
		{"slash then name", `<r><a/b></r>`},
		{"lt in value", `<r><a x="1<2"/></r>`},
		{"lt in value after reference", `<r><a x="&amp;<"/></r>`},
		{"lt in tag", `<r><a <b/></r>`},
		{"bad digit in reference", `<r><a x="&#zz;"/></r>`},
		{"empty character reference", `<r><a x="&#;"/></r>`},
		{"character reference out of range", `<r><a x="&#x110000;"/></r>`},
		{"reference without semicolon", `<r><a x="&amp"/></r>`},
		{"reference without name", `<r><a x="&;"/></r>`},
		{"unknown reference", `<r><a x="&nope;"/></r>`},
		{"reference to an illegal character", `<r><a x="ok&#1;"/></r>`},
		{"illegal control byte", "<r><a x=\"1\x01\"/></r>"},
		{"illegal control byte after reference", "<r><a x=\"&amp;\x01\"/></r>"},
		{"invalid UTF-8", "<r><a x=\"\xff\"/></r>"},
		{"truncated UTF-8 sequence", "<r><a x=\"\xc3\"/></r>"},
		{"illegal non-ASCII character", "<r><a x=\"\xef\xbf\xbe\"/></r>"},
		{"duplicate attribute", `<r><a x="1" x="2"/></r>`},
		{"duplicate attribute with reference", `<r><a x="&amp;" y="2" x="&lt;"/></r>`},
		{"bad element name start", `<r><1a/></r>`},
		{"bad attribute name start", `<r><a 1x="1"/></r>`},
		{"quote for attribute name", `<r><a "x"/></r>`},
		{"invalid element name", `<r><a:b:c/></r>`},
		{"invalid attribute name", `<r><a x:y:z="1"/></r>`},
		{"invalid attribute name without value", `<r><a x:y:z></r>`},
		{"invalid attribute name then bad value", `<r><a x:y:z="&nope;"/></r>`},
		{"multiple roots", `<a/><b/>`},
		// Malformed end tags.
		{"mismatched end tag", `<r><a></b></r>`},
		{"mismatched end tag with space", `<r><a></b  ></r>`},
		{"unmatched end tag", `<r/></a>`},
		{"end tag alone", `</a>`},
		{"bad end tag name start", `<r></1a></r>`},
		{"invalid end tag name", `<r><a></a:b:c></r>`},
		{"junk in end tag", `<r><a></a x></r>`},
		{"junk in mismatched end tag", `<r><a></b x></r>`},
		{"quote in end tag", `<r><a></a"></r>`},
		{"lt in end tag", `<r><a></a<b></r>`},
		// Valid tags.
		{"references in values", `<r><a x="1&amp;2&#65;&#x42;&lt;&gt;" y='&quot;&apos;'/></r>`},
		{"line endings in values", "<r><a x=\"1\r\n2\r3\n4\" y='\r'/></r>"},
		{"non-ASCII values", "<r><a x=\"\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\" y='a\xc3\xa9'/></r>"},
		{"attribute without preceding space", `<r><a x="1"y="2"/></r>`},
		{"end tag with spaces", "<r><a></a  ></r  >"},
		{"end tag with newline", "<r><a></a\n></r>"},
		{"whitespace around equals", "<r\n><a\tx\n=\n'1'\r\n y = \"2\" /></r>"},
		{"markup bytes in values", `<r><a x="a>b'c" y='d"e>f'/></r>`},
		{"empty values", `<r><a x="" y=''/></r>`},
		{"declared entity in value", `<!DOCTYPE r [<!ENTITY e "E&amp;e">]><r><a x="&e;!"/></r>`},
		{"prefixed names", `<r xmlns:p="u"><p:a p:x="1" x="2"></p:a></r>`},
		{"long names", "<r><" + strings.Repeat("n", 40) + " " + strings.Repeat("m", 40) + "='v'></" + strings.Repeat("n", 40) + "></r>"},
	}
	// An EOF at every byte inside a start tag and inside end tags.
	for _, tc := range []struct{ name, head, tag string }{
		{"eof in start tag", "<r>", `<ab x = "1&amp;&#x42;" y='é'/>`},
		{"eof in end tag", "<r><ab>t", "</ab \n>"},
		{"eof in mismatched end tag", "<r><ab>", "</xy >"},
	} {
		for n := 1; n < len(tc.tag); n++ {
			cases = append(cases, tagCase{fmt.Sprintf("%s at %d", tc.name, n), tc.head + tc.tag[:n]})
		}
	}
	return cases
}

// renderTagCase renders what the scanner reports for doc: one line per event,
// then the error or "ok".
func renderTagCase(evs []string, err error) string {
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString(ev)
		sb.WriteByte('\n')
	}
	if err != nil {
		sb.WriteString("error: " + err.Error() + "\n")
	} else {
		sb.WriteString("ok\n")
	}
	return sb.String()
}

// TestTagsGolden pins the scanner's events and diagnostics for tags: every
// case, scanned with every read-buffer size from one byte to the document's
// length and through a reader that returns one byte per read, must render
// exactly as tagsGolden has it.
func TestTagsGolden(t *testing.T) {
	raw, err := os.ReadFile(tagsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, entry := range strings.Split(string(raw), "== ")[1:] {
		name, body, _ := strings.Cut(entry, "\n")
		_, body, _ = strings.Cut(body, "\n") // the quoted document
		want[name] = body
	}
	cases := tagCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d entries, want %d", tagsGolden, len(want), len(cases))
	}
	for _, tc := range cases {
		exp, ok := want[tc.name]
		if !ok {
			t.Fatalf("%s has no entry %q", tagsGolden, tc.name)
		}
		check := func(how string, evs []string, err error) {
			t.Helper()
			if got := renderTagCase(evs, err); got != exp {
				t.Fatalf("%s, %s, doc %q:\ngot:\n%s\nwant:\n%s", tc.name, how, tc.doc, got, exp)
			}
		}
		for size := 1; size <= len(tc.doc); size++ {
			s := NewScanner(strings.NewReader(tc.doc))
			s.buf = make([]byte, size)
			evs, err := traceTags(s)
			check(fmt.Sprintf("buffer %d", size), evs, err)
		}
		s := NewScanner(iotest.OneByteReader(strings.NewReader(tc.doc)))
		s.batchLimit = 1
		evs, err := traceTags(s)
		check("one byte per read", evs, err)
	}
}

// traceTags renders every event s delivers through the poisoning sink, the
// ones before an error included.
func traceTags(s *Scanner) ([]string, error) {
	var out []string
	err := saxtest.PoisonDriver(s).Run(sax.PerEvent(func(ev *sax.Event) error {
		out = append(out, renderFuzzEvent(ev))
		return nil
	}))
	return out, err
}

// TestHugeValueOneByteReads feeds a start tag with a 1 MB attribute value one
// byte per read: the scan for the tag's end must resume where each read left
// it, since starting over from the tag's first byte would take a million
// rescans of up to a megabyte each.
func TestHugeValueOneByteReads(t *testing.T) {
	val := strings.Repeat("v", 1<<20)
	doc := `<r><a x="` + val + `"/></r>`
	s := NewScanner(iotest.OneByteReader(strings.NewReader(doc)))
	found := false
	err := s.Run(sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement && ev.Name == "a" {
			found = len(ev.Attrs) == 1 && ev.Attrs[0].Value == val
		}
		return nil
	}))
	if err != nil || !found {
		t.Fatalf("err %v, value found %v", err, found)
	}
}
