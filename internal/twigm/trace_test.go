package twigm

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmlscan"
)

func TestTracePaperExample(t *testing.T) {
	var log strings.Builder
	prog := MustCompile(datagen.PaperQuery)
	_, _, err := Collect(prog, xmlscan.NewScannerWith(strings.NewReader(datagen.PaperFigure1), prog.Symbols()),
		Options{Trace: &log})
	if err != nil {
		t.Fatal(err)
	}
	out := log.String()
	// The trace must narrate the paper's walkthrough: pushes for the
	// three sections and tables, the candidate for cell₈, the position
	// and author matches, and exactly one proven emission.
	for _, want := range []string{
		"push   section",
		"push   table",
		"push   cell",
		"cand   #0 created",
		"match  position",
		"match  author",
		"proven #0",
		"emit   #0",
		"<cell> A </cell>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "emit") != 1 {
		t.Fatalf("expected exactly one emission:\n%s", out)
	}
	// Tables 6 and 7 pop unsatisfied (no position child).
	if strings.Count(out, "pop    table        level=6 unsatisfied") != 1 ||
		strings.Count(out, "pop    table        level=7 unsatisfied") != 1 {
		t.Fatalf("inner tables should pop unsatisfied:\n%s", out)
	}
}

func TestTraceDropAndPrune(t *testing.T) {
	var log strings.Builder
	prog := MustCompile("//a[@k='1']/b")
	doc := `<r><a k="2"><b/></a><a><b/></a><a k="1"><b/></a></r>`
	results, _, err := Collect(prog, xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols()), Options{Trace: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results: %v", Values(results))
	}
	out := log.String()
	if strings.Count(out, "prune  a") != 2 {
		t.Fatalf("expected 2 prunes:\n%s", out)
	}
	// The b's under pruned a's never become candidates (their parent has
	// no entry), so no drops occur — pruning preempted them.
	if strings.Contains(out, "drop") {
		t.Fatalf("unexpected drop:\n%s", out)
	}
}

func TestTraceDroppedCandidate(t *testing.T) {
	var log strings.Builder
	prog := MustCompile("//a[p]/b")
	doc := `<r><a><b/></a></r>` // no p: the b candidate must drop
	_, _, err := Collect(prog, xmlscan.NewScannerWith(strings.NewReader(doc), prog.Symbols()), Options{Trace: &log})
	if err != nil {
		t.Fatal(err)
	}
	out := log.String()
	if !strings.Contains(out, "cand   #0 created") || !strings.Contains(out, "drop   #0") {
		t.Fatalf("trace:\n%s", out)
	}
}

func TestNoTraceNoOutput(t *testing.T) {
	// Nil trace must be silent and cost nothing (smoke: just run).
	prog := MustCompile("//a")
	if _, _, err := Collect(prog, xmlscan.NewScannerWith(strings.NewReader("<a/>"), prog.Symbols()), Options{}); err != nil {
		t.Fatal(err)
	}
}
