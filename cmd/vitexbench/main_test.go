package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchE6AndE7(t *testing.T) {
	// E6/E7 need no corpus: fast enough for the unit suite.
	var out bytes.Buffer
	if err := run([]string{"-exp", "e6,e7", "-mb", "1", "-dir", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"E6: paper worked example", "<cell> A </cell>", "E7: TwigM build time", "R²="} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestBenchE1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 1MiB corpus")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "e1", "-mb", "1", "-dir", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SAX parse only") {
		t.Fatalf("report:\n%s", out.String())
	}
}

func TestBenchUnknownExpIgnored(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e99", "-dir", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected output: %s", out.String())
	}
}
