package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/sax/saxtest"
)

func gen(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("vitexgen %v: %v", args, err)
	}
	return out.String()
}

func assertWellFormed(t *testing.T, doc string) {
	t.Helper()
	nop := sax.PerEvent(func(*sax.Event) error { return nil })
	if err := saxtest.NewStdDriver(strings.NewReader(doc)).Run(nop); err != nil {
		t.Fatalf("output malformed: %v", err)
	}
}

func TestGenFigure1(t *testing.T) {
	doc := gen(t, "-kind", "figure1")
	assertWellFormed(t, doc)
	if !strings.Contains(doc, "<cell> A </cell>") {
		t.Fatalf("doc: %s", doc)
	}
}

func TestGenBook(t *testing.T) {
	doc := gen(t, "-kind", "book", "-sections", "2", "-tables", "2", "-repeat", "3")
	assertWellFormed(t, doc)
	if strings.Count(doc, "<cell>") != 3 {
		t.Fatalf("cells: %d", strings.Count(doc, "<cell>"))
	}
}

func TestGenChain(t *testing.T) {
	doc := gen(t, "-kind", "chain", "-depth", "4")
	if doc != "<a><a><a><a><b/></a></a></a></a>" {
		t.Fatalf("doc = %q", doc)
	}
}

func TestGenTicker(t *testing.T) {
	doc := gen(t, "-kind", "ticker", "-trades", "5", "-seed", "2")
	assertWellFormed(t, doc)
	if strings.Count(doc, "<trade ") != 5 {
		t.Fatal(doc)
	}
}

func TestGenProteinToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.xml")
	var out bytes.Buffer
	// 1 MiB = smallest unit; writes to file, stdout stays empty.
	if err := run([]string{"-kind", "protein", "-mb", "1", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty: %d bytes", out.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 1<<20 {
		t.Fatalf("file too small: %d", len(data))
	}
	assertWellFormed(t, string(data))
}

func TestGenErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -kind should fail")
	}
	if err := run([]string{"-kind", "nope"}, &out); err == nil {
		t.Error("unknown kind should fail")
	}
}
