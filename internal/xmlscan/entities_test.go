package xmlscan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

func textOf(t *testing.T, doc string) (string, error) {
	t.Helper()
	var text strings.Builder
	err := NewScanner(strings.NewReader(doc)).Run(saxtest.Poison(sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.Text {
			text.WriteString(ev.Text)
		}
		return nil
	})))
	return text.String(), err
}

func TestInternalEntityBasic(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY greet "hello">]><a>&greet; world</a>`
	got, err := textOf(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello world" {
		t.Fatalf("got %q", got)
	}
}

func TestInternalEntityInAttribute(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY v "x&amp;y">]><a k="&v;"/>`
	var attr string
	err := NewScanner(strings.NewReader(doc)).Run(saxtest.Poison(sax.PerEvent(func(ev *sax.Event) error {
		if ev.Kind == sax.StartElement {
			v, _ := sax.GetAttr(ev.Attrs, "k")
			attr = strings.Clone(v)
		}
		return nil
	})))
	if err != nil {
		t.Fatal(err)
	}
	if attr != "x&y" {
		t.Fatalf("attr = %q", attr)
	}
}

func TestNestedEntities(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY inner "core"><!ENTITY outer "[&inner;]">]><a>&outer;</a>`
	got, err := textOf(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != "[core]" {
		t.Fatalf("got %q", got)
	}
}

func TestEntityWithCharRefs(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY e "A&#66;&#x43;">]><a>&e;</a>`
	got, err := textOf(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != "ABC" {
		t.Fatalf("got %q", got)
	}
}

func TestFirstDeclarationBinds(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY e "first"><!ENTITY e "second">]><a>&e;</a>`
	got, err := textOf(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != "first" {
		t.Fatalf("got %q", got)
	}
}

func TestEntityMarkupRejected(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY e "<b/>">]><a>&e;</a>`
	_, err := textOf(t, doc)
	if err == nil || !strings.Contains(err.Error(), "markup") {
		t.Fatalf("err = %v", err)
	}
}

func TestBillionLaughsBlocked(t *testing.T) {
	// The classic exponential expansion: must fail fast with a typed
	// error, not consume gigabytes.
	var dtd strings.Builder
	dtd.WriteString(`<!DOCTYPE a [<!ENTITY l0 "ha">`)
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&dtd, `<!ENTITY l%d "&l%d;&l%d;&l%d;&l%d;&l%d;&l%d;&l%d;&l%d;&l%d;&l%d;">`,
			i, i-1, i-1, i-1, i-1, i-1, i-1, i-1, i-1, i-1, i-1)
	}
	dtd.WriteString(`]><a>&l12;</a>`)
	_, err := textOf(t, dtd.String())
	if err == nil {
		t.Fatal("billion laughs must be rejected")
	}
	if !strings.Contains(err.Error(), "expands beyond") && !strings.Contains(err.Error(), "nested more than") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecursiveEntityBlocked(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY e "&e;">]><a>&e;</a>`
	_, err := textOf(t, doc)
	if err == nil || !strings.Contains(err.Error(), "nested more than") {
		t.Fatalf("err = %v", err)
	}
}

func TestExternalEntitySkipped(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY ext SYSTEM "http://evil.example/x">]><a>&ext;</a>`
	_, err := textOf(t, doc)
	if err == nil || !strings.Contains(err.Error(), "unknown entity") {
		t.Fatalf("external entity must stay unresolved: %v", err)
	}
}

func TestParameterEntitySkipped(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY % pe "ignored"><!ENTITY real "ok">]><a>&real;</a>`
	got, err := textOf(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != "ok" {
		t.Fatalf("got %q", got)
	}
}

func TestOtherDeclarationsStillSkipped(t *testing.T) {
	doc := `<!DOCTYPE a [
		<!ELEMENT a (#PCDATA)>
		<!ATTLIST a k CDATA #IMPLIED>
		<!ENTITY e "v">
		<!NOTATION n SYSTEM "x">
	]><a>&e;</a>`
	got, err := textOf(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Fatalf("got %q", got)
	}
}

func TestUnknownEntityStillFails(t *testing.T) {
	doc := `<!DOCTYPE a [<!ENTITY e "v">]><a>&nope;</a>`
	if _, err := textOf(t, doc); err == nil {
		t.Fatal("unknown entity must fail")
	}
}
