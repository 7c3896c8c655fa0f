package xmlscan

import (
	"encoding/xml"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sax"
)

// stdAcceptsName reports whether encoding/xml parses <name/> successfully —
// the reference verdict the ported name tables must reproduce.
func stdAcceptsName(name string) bool {
	return stdAcceptsDoc("<" + name + "/>")
}

// TestNameTablesMatchStdlib sweeps the whole basic multilingual plane,
// comparing isXMLName against encoding/xml for each rune as a name start and
// as a second character. This pins the ported XML 1.0 Appendix B tables to
// the stdlib's data: any transcription error fails here, not in a fuzz
// campaign months later.
func TestNameTablesMatchStdlib(t *testing.T) {
	if testing.Short() {
		t.Skip("BMP sweep skipped in short mode")
	}
	var buf [utf8.UTFMax]byte
	for r := rune(0x21); r <= 0xFFFD; r++ {
		if r >= 0xD800 && r <= 0xDFFF {
			continue // surrogates are not encodable
		}
		n := utf8.EncodeRune(buf[:], r)
		alone := string(buf[:n])
		if strings.ContainsAny(alone, "<>&'\"/=?! \t\r\n") {
			continue // XML structure bytes: never reach name validation
		}
		asFirst := isXMLName([]byte(alone))
		if std := stdAcceptsName(alone); asFirst != std {
			t.Errorf("name start %U: scanner %v, encoding/xml %v", r, asFirst, std)
		}
		second := "a" + alone
		asSecond := isXMLName([]byte(second))
		if std := stdAcceptsName(second); asSecond != std {
			t.Errorf("second char %U: scanner %v, encoding/xml %v", r, asSecond, std)
		}
		if t.Failed() {
			if r > 0x100 { // report a handful, then stop
				break
			}
		}
	}
}

// TestScannerNameVerdicts spot-checks the scanner end to end on name shapes
// the fuzz campaign surfaced.
func TestScannerNameVerdicts(t *testing.T) {
	cases := []struct {
		doc string
		ok  bool
	}{
		{"<a/>", true},
		{"<élément>x</élément>", true},
		{"<a.b-c_d/>", true},
		{"<:/>", true},  // degenerate QName, accepted unsplit
		{"<a:/>", true}, // degenerate QName, accepted unsplit
		{"<p:a xmlns:p='u'/>", true},
		{"<a:b:c/>", false},   // more than one colon
		{"<1a/>", false},      // digit cannot start a name
		{"<a\x80b/>", false},  // invalid UTF-8 in name
		{"<a\u00d7/>", false}, // U+00D7 multiplication sign: not a name char
	}
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	for _, c := range cases {
		err := NewScanner(strings.NewReader(c.doc)).Run(nop)
		if (err == nil) != c.ok {
			t.Errorf("%q: err=%v, want ok=%v", c.doc, err, c.ok)
		}
		if got := stdAcceptsDoc(c.doc); got != c.ok {
			t.Errorf("%q: encoding/xml ok=%v, want %v (fix the expectation)", c.doc, got, c.ok)
		}
	}
}

func stdAcceptsDoc(doc string) bool {
	dec := xml.NewDecoder(strings.NewReader(doc))
	dec.Entity = map[string]string{}
	for {
		_, err := dec.Token()
		if err != nil {
			return err.Error() == "EOF"
		}
	}
}
