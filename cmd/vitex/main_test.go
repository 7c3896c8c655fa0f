package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// execCLI runs the CLI with a document on stdin and returns stdout.
func execCLI(t *testing.T, stdin string, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), err
}

func TestCLIPaperExample(t *testing.T) {
	out, _, err := execCLI(t, datagen.PaperFigure1, "-q", datagen.PaperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "<cell> A </cell>" {
		t.Fatalf("out = %q", out)
	}
}

func TestCLICount(t *testing.T) {
	out, _, err := execCLI(t, "<r><a/><a/><a/></r>", "-q", "//a", "-count")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "3" {
		t.Fatalf("out = %q", out)
	}
}

func TestCLIEngines(t *testing.T) {
	doc := datagen.PaperFigure1
	var outs []string
	for _, engine := range []string{"twigm", "naive", "dom"} {
		out, _, err := execCLI(t, doc, "-q", "//table[position]//cell", "-engine", engine)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("engines disagree: %q", outs)
	}
}

func TestCLIMachine(t *testing.T) {
	out, _, err := execCLI(t, "", "-q", datagen.PaperQuery, "-machine")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=section", "-author", "=cell *"} {
		if !strings.Contains(out, want) {
			t.Fatalf("machine output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIStats(t *testing.T) {
	_, stderr, err := execCLI(t, "<r><a/></r>", "-q", "//a", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "events=") || !strings.Contains(stderr, "pushes=") {
		t.Fatalf("stats = %q", stderr)
	}
	_, stderr, err = execCLI(t, "<r><a/></r>", "-q", "//a", "-engine", "naive", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "peakMatches=") {
		t.Fatalf("naive stats = %q", stderr)
	}
}

func TestCLIOrdered(t *testing.T) {
	out, _, err := execCLI(t, "<r><a>1</a><a>2</a></r>", "-q", "//a", "-ordered")
	if err != nil {
		t.Fatal(err)
	}
	if out != "<a>1</a>\n<a>2</a>\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestCLIFileInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte("<r><a>hi</a></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := execCLI(t, "", "-q", "//a/text()", path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "hi" {
		t.Fatalf("out = %q", out)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // missing -q
		{"-q", "bad query ["},               // parse error
		{"-q", "//a", "-engine", "quantum"}, // unknown engine
		{"-q", "//a[b or c]", "-engine", "naive"}, // naive can't do 'or'
	}
	for _, args := range cases {
		if _, _, err := execCLI(t, "<a/>", args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
	// Malformed input.
	if _, _, err := execCLI(t, "<a><b></a>", "-q", "//a"); err == nil {
		t.Error("malformed input: expected error")
	}
	// Missing file.
	if _, _, err := execCLI(t, "", "-q", "//a", "/does/not/exist.xml"); err == nil {
		t.Error("missing file: expected error")
	}
}

func TestCLIDOMCount(t *testing.T) {
	out, _, err := execCLI(t, "<r><a/><a/></r>", "-q", "//a", "-engine", "dom", "-count")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "2" {
		t.Fatalf("out = %q", out)
	}
}

// TestCLITraceGolden pins `vitex -trace` byte for byte over a small ticker
// feed: results on stdout, the machine transitions on stderr. Both queries
// put an equality step in a value group of one member, alone and beside an
// ordinary union branch, so the golden files hold the trace such a group
// writes to be the trace of the member's own machine.
func TestCLITraceGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("testdata", "ticker.xml"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		golden, query string
		ordered       bool
	}{
		{"trace_symbol.golden", "//trade/symbol[. = 'ACME']", false},
		{"trace_symbol_ordered.golden", "//trade/symbol[. = 'ACME']", true},
		{"trace_union.golden", "//trade/symbol[. = 'ACME'] | //trade/price", false},
		{"trace_union_ordered.golden", "//trade/symbol[. = 'ACME'] | //trade/price", true},
	}
	for _, tc := range cases {
		args := []string{"-trace", "-q", tc.query}
		if tc.ordered {
			args = append(args, "-ordered")
		}
		out, trace, err := execCLI(t, string(doc), args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		got := "--- stdout\n" + out + "--- stderr\n" + trace
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("vitex %s differs from testdata/%s:\n%s", strings.Join(args, " "), tc.golden, got)
		}
	}
}
