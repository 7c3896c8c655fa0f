package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEndMetrics)
	same("per_layer", c.PerLayer, perLayerMetrics)
}

// TestEveryWorkloadRuns drives each workload end to end and traced at a
// hundredth of its size and holds the emitted metric names to the contract:
// none missing, none extra.
func TestEveryWorkloadRuns(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 7, seconds: 0.3, scale: 0.01, traced: traced, out: t.TempDir()}
			res, err := runOnce(w, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, contract names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, contract %q", w.name, m.Name, got.Unit, m.Unit)
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
				}
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		used float64
	}{
		{1100, 0.99, 0.99}, // 11 samples beyond p99
		{1000, 0.99, 0.99}, // exactly 10 beyond
		{999, 0.99, 1 - 10.0/999},
		{100, 0.99, 0.90}, // only p90 has ten beyond
		{100, 0.50, 0.50},
		{12, 0.99, 0.50}, // nothing above the median is supported
	} {
		if got := supportedPercentile(tc.n, tc.want); got != tc.used {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.used)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, used := quantileOf(v, 0.99); got != 990 || used != 0.99 {
		t.Errorf("p99 of 1..1000 = %v at p%v, want 990 (ten samples beyond)", got, used)
	}
	if got := median(v[:5]); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "doc", Start: 0, End: 100, Parent: -1},
		{Name: "publish", Start: 10, End: 40, Parent: 0},
		{Name: "consume", Start: 30, End: 90, Parent: 0}, // overlaps publish by 10
		{Name: "inner", Start: 35, End: 50, Parent: 2},
		{Name: "late", Start: 95, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - (30 + 50 + 5), 30, 60 - 15, 15, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

// TestOpenLoopSchedule holds the open loop to its definition: every document
// is timed from the instant it was due, lateness is recorded per hand-off,
// and the severed consumer's documents come back through replay.
func TestOpenLoopSchedule(t *testing.T) {
	w := findWorkload("srv_durable_resume")
	f, err := setUp(w, 3, 0.02, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	const dur = 1200 * time.Millisecond
	run := f.run(limit{dur: dur}, false)
	docs := int(dur.Seconds() * w.rate)
	if run.attempted != docs || run.failed != 0 || len(run.docs) != docs {
		t.Fatalf("attempted %d failed %d verified %d, want %d/0/%d", run.attempted, run.failed, len(run.docs), docs, docs)
	}
	if len(run.latenessMs) != docs {
		t.Errorf("%d lateness samples for %d hand-offs", len(run.latenessMs), docs)
	}
	due := make(map[time.Duration]bool, docs)
	for i := 0; i < docs; i++ {
		due[time.Duration(float64(i)/w.rate*float64(time.Second))] = true
	}
	for _, d := range run.docs {
		if !due[d.start] {
			t.Fatalf("document timed from %v, which is no due instant of a %v docs/s schedule", d.start, w.rate)
		}
		if d.first < d.start || d.last < d.first {
			t.Fatalf("document timeline out of order: %+v", d)
		}
	}
	for _, late := range run.latenessMs {
		if late < 0 {
			t.Fatalf("hand-off %v ms before it was due", -late)
		}
	}
	severs := docs / w.severEvery
	if len(run.catchupsMs) < severs-1 || run.replayed < (severs-1)*w.awayDocs {
		t.Errorf("%d catch-ups, %d replayed documents; want about %d and at least %d", len(run.catchupsMs), run.replayed, severs, (severs-1)*w.awayDocs)
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
