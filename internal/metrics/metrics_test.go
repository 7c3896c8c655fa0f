package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sax"
	"repro/internal/xmlscan"
)

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	f := LinearFit(xs, ys)
	if math.Abs(f.A-1) > 1e-9 || math.Abs(f.B-2) > 1e-9 || math.Abs(f.R2-1) > 1e-9 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitNoise(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	f := LinearFit(xs, ys)
	if f.B < 1.8 || f.B > 2.2 || f.R2 < 0.99 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if f := LinearFit(nil, nil); f.B != 0 {
		t.Fatalf("empty fit = %+v", f)
	}
	if f := LinearFit([]float64{1, 1}, []float64{2, 3}); f.B != 0 {
		t.Fatalf("vertical fit = %+v", f)
	}
}

// Property (testing/quick): a perfect line is always recovered exactly.
func TestLinearFitRecoversLineQuick(t *testing.T) {
	prop := func(a, b float64, n uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Bound magnitudes to keep float error proportional.
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		pts := int(n%20) + 2
		xs := make([]float64, pts)
		ys := make([]float64, pts)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = a + b*float64(i)
		}
		f := LinearFit(xs, ys)
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(f.A-a) < 1e-6*scale && math.Abs(f.B-b) < 1e-6*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapSampler(t *testing.T) {
	doc := "<r>" + strings.Repeat("<a>some text content here</a>", 5000) + "</r>"
	var sink int64
	inner := sax.PerEvent(func(ev *sax.Event) error {
		sink += int64(len(ev.Text))
		return nil
	})
	hs := &HeapSampler{Every: 1000}
	h := hs.Wrap(inner)
	if err := xmlscan.NewScanner(strings.NewReader(doc)).Run(h); err != nil {
		t.Fatal(err)
	}
	if len(hs.Samples) == 0 {
		t.Fatal("no samples taken")
	}
	last := hs.Samples[len(hs.Samples)-1]
	if last.Events < 15000 {
		t.Fatalf("sampler saw only %d events", last.Events)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"col", "value"}}
	tbl.AddRow("a", "1")
	tbl.AddRow("longer", "2")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "col") || !strings.Contains(lines[2], "---") {
		t.Fatalf("bad header/sep:\n%s", out)
	}
	// Columns align.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "2") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestBytesUnits(t *testing.T) {
	cases := map[uint64]string{
		12:        "12B",
		2048:      "2.0KiB",
		3 << 20:   "3.00MiB",
		5 << 30:   "5.00GiB",
		1<<20 - 1: "1024.0KiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(10_000_000, time.Second); got != "10.0MB/s" {
		t.Fatalf("got %q", got)
	}
	if got := Throughput(1, 0); got != "inf" {
		t.Fatalf("got %q", got)
	}
}

func TestTimer(t *testing.T) {
	tm := StartTimer()
	time.Sleep(time.Millisecond)
	if tm.Elapsed() < time.Millisecond {
		t.Fatal("timer went backwards")
	}
}
