package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// lintBin is the vitexlint binary TestMain builds for the package's tests.
var lintBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vitexlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lintBin = filepath.Join(dir, "vitexlint")
	code := 1
	if out, err := exec.Command("go", "build", "-o", lintBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building vitexlint: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSuiteCleanAsVetTool is the zero-suppressions acceptance gate: the
// whole repository passes the suite through cmd/go's vet -vettool protocol,
// the way CI invokes it.
func TestSuiteCleanAsVetTool(t *testing.T) {
	bin := lintBin
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed: %v\n%s", err, out)
	}
}

// TestSuiteReportsViolations proves the gate actually gates: a scratch module
// with one violation per analyzer fails with each analyzer's diagnostic.
func TestSuiteReportsViolations(t *testing.T) {
	bin := lintBin
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	write("scratch.go", `package scratch

import "sync"

// Doc is copy-on-write.
//
//vitex:cow
type Doc struct{ n int }

// Mutate writes outside any cowmut function.
func Mutate(d *Doc) { d.n++ }

// Buf is pooled.
//
//vitex:pooled
type Buf struct {
	data []byte
	pos  int
}

// Reset misses pos.
func (b *Buf) Reset() { b.data = b.data[:0] }

// Hot allocates.
//
//vitex:hotpath
func Hot() map[string]int { return map[string]int{} }

// Stats has an unannotated plain counter.
//
//vitex:counters
type Stats struct {
	mu   sync.Mutex
	hits int64
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("vitexlint passed a module with violations:\n%s", out)
	}
	for _, want := range []string{"cowsafety", "resetcomplete", "hotalloc", "metricsync"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %s diagnostic:\n%s", want, out)
		}
	}
}

// TestCowWriterAcrossPackages: a //vitex:cowmut method of another package's
// //vitex:cow type, called on a field of a cow struct outside a writer, is
// reported — the annotations reach the importer as facts — also when the
// pattern names the importer only.
func TestCowWriterAcrossPackages(t *testing.T) {
	bin := lintBin
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	write("tab/tab.go", `package tab

// Table is copy-on-write.
//
//vitex:cow
type Table struct{ items []int }

// Set writes.
//
//vitex:cowmut
func (t *Table) Set(i, v int) { t.items[i] = v }

// At reads.
func (t *Table) At(i int) int { return t.items[i] }
`)
	write("scratch.go", `package scratch

import "scratch/tab"

// Epoch is copy-on-write.
//
//vitex:cow
type Epoch struct{ progs tab.Table }

// Poke writes a published epoch's table.
func Poke(e *Epoch) int {
	e.progs.Set(0, 1)
	return e.progs.At(0)
}

// Build writes the epoch it is building.
//
//vitex:cowmut
func Build(e *Epoch) { e.progs.Set(0, 1) }
`)
	const want = "scratch.go:12:10: cowsafety: call of writer Set on field Epoch.progs"
	for _, args := range [][]string{
		{"go", "vet", "-vettool=" + bin, "./..."},
		{"go", "vet", "-vettool=" + bin, "."},
	} {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), want) || strings.Count(string(out), "cowsafety") != 1 {
			t.Errorf("%s: want exactly one finding %q, got (err %v):\n%s", strings.Join(args, " "), want, err, out)
		}
	}
}
