package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tinyWorkloads are the four workloads at sizes that take milliseconds,
// run through the same code paths as the full ones.
func tinyWorkloads() []workloadDef {
	return []workloadDef{
		{name: "ring", invs: []invocation{{Source: "broadcast", Runs: 1, Params: []string{
			"n=2000", "topology=ring", "target=3", "trace=none", "maxevents=16777216"}}}},
		{name: "watch-ring", invs: []invocation{{Source: "broadcast", Runs: 1, Watch: true, Params: []string{
			"n=1000", "topology=ring", "target=3", "trace=window/256", "maxevents=16777216"}}}},
		{name: "watch-dense", invs: []invocation{{Source: "broadcast", Runs: 1, Watch: true, Params: []string{
			"n=8", "target=10", "trace=window/256", "maxevents=16777216"}}}},
		{name: "catalogue", invs: catalogue(3, 1)},
	}
}

// abcsim is built once per test binary, outside the repository.
var abcsim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	abcsim = filepath.Join(dir, "abcsim")
	code := 1
	if err := buildAbcsim("..", abcsim); err != nil {
		fmt.Fprintln(os.Stderr, "building abcsim:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func testSpec(t *testing.T) spec {
	t.Helper()
	sp, err := loadSpec("..", workloadDefs)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSmokeAllWorkloads(t *testing.T) {
	sp := testSpec(t)
	rep := measure(sp, tinyWorkloads(), abcsim, 1, 0, true, io.Discard)
	for _, wr := range rep.Workloads {
		if len(wr.Failures) > 0 {
			t.Errorf("%s: %s", wr.Name, strings.Join(wr.Failures, "; "))
		}
	}
	if !rep.Correct {
		t.Fatal("output checks failed")
	}
	if len(rep.Workloads) != 4 {
		t.Fatalf("%d workloads reported, want 4", len(rep.Workloads))
	}
	for _, wr := range rep.Workloads {
		if len(wr.Samples) != minSamples {
			t.Errorf("%s: %d samples with no time budget, want %d", wr.Name, len(wr.Samples), minSamples)
		}
		for _, m := range sp.EndToEnd {
			s, ok := wr.Metrics[m.Name]
			if fleetOnly[m.Name] && wr.Name != "catalogue" {
				if ok {
					t.Errorf("%s: single-job workload summarizes %s", wr.Name, m.Name)
				}
				continue
			}
			if !ok || s.N != minSamples || s.Unit != m.Unit || !(s.Min <= s.Median && s.Median <= s.Max) || s.Median <= 0 {
				t.Errorf("%s %s: summary %+v", wr.Name, m.Name, s)
			}
		}
		for _, m := range sp.PerLayer {
			if _, ok := wr.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, m.Name)
			}
		}
		if c := wr.Layers["trace.coverage_frac"]; c < 0.95 || c > 1 {
			t.Errorf("%s: job-level spans cover %.3f of the traced job time", wr.Name, c)
		}
		roots := 0
		for _, s := range wr.Spans {
			if s.Name == "job" && s.Parent == 0 {
				roots++
			}
		}
		if roots == 0 || roots > keepJobs {
			t.Errorf("%s: %d job spans kept, want 1..%d", wr.Name, roots, keepJobs)
		}
	}

	// The single-workload result line has exactly the four keys, with
	// every end-to-end (or, traced, every per-layer) metric.
	for _, trace := range []bool{false, true} {
		var buf bytes.Buffer
		one := &report{Correct: rep.Correct, Workloads: rep.Workloads[:1]}
		if err := printResult(&buf, sp, one, trace); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if keys := sortedKeys(line); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]resultValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := sp.EndToEnd
		if trace {
			want = sp.PerLayer
		}
		for _, m := range want {
			if v, ok := metrics[m.Name]; !ok || !trace && v.Value <= 0 {
				t.Errorf("trace=%v: metric %s is %+v", trace, m.Name, v)
			}
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(want))
		}
	}
}

func TestTracedPassMustReproduceUntraced(t *testing.T) {
	def := tinyWorkloads()[2]
	rep := measure(testSpec(t), []workloadDef{def}, abcsim, 1, 0, false, io.Discard)
	want := rep.Workloads[0].outcomes
	if !rep.Correct || len(want) != 1 {
		t.Fatalf("untraced run: correct=%v, %d outcomes", rep.Correct, len(want))
	}
	if got := tracePass(def, 1, want, newTracer(keepJobs)); got.Failed != 0 {
		t.Fatalf("traced pass of the same jobs failed: %v", got.Failures)
	}
	for _, bad := range []func(*outcome){
		func(o *outcome) { o.Verdict = "inadmissible" },
		func(o *outcome) { o.Ratio = "7/5" },
		func(o *outcome) { o.StreamHash = "0123456789abcdef" },
	} {
		o := want[0]
		bad(&o)
		if got := tracePass(def, 1, []outcome{o}, newTracer(keepJobs)); got.Failed != 1 {
			t.Errorf("untraced %+v: traced pass failed %d jobs, want 1", o, got.Failed)
		}
	}
}

func TestGateFailsOnCorruptDigest(t *testing.T) {
	sp := testSpec(t)
	defs := tinyWorkloads()[:1]
	defs[0].pinned = "0123456789abcdef"
	rep := measure(sp, defs, abcsim, 1, 0, false, io.Discard)
	if wr := rep.Workloads[0]; rep.Correct || wr.Failed != wr.Attempted {
		t.Fatalf("corrupt pinned digest: correct=%v, %d of %d jobs failed", rep.Correct, wr.Failed, wr.Attempted)
	}
	// The pin applies at seed 1 only.
	if rep := measure(sp, defs, abcsim, 2, 0, false, io.Discard); !rep.Correct {
		t.Fatalf("seed 2 failed: %v", rep.Workloads[0].Failures)
	}
}

func TestGateFailsOnDivergentSample(t *testing.T) {
	wr := workloadReport{Samples: []sample{
		{Digest: "aa", Attempted: 2},
		{Digest: "aa", Attempted: 2},
		{Digest: "bb", Attempted: 2},
	}}
	gateSamples(&wr, workloadDef{}, 3)
	if wr.Attempted != 6 || wr.Failed != 2 || len(wr.Failures) != 1 {
		t.Fatalf("attempted %d, failed %d, failures %v", wr.Attempted, wr.Failed, wr.Failures)
	}
}

func TestBroadcastClosedForm(t *testing.T) {
	for _, c := range []struct {
		params map[string]string
		want   int
		ok     bool
	}{
		{map[string]string{"n": "64", "target": "40", "topology": "full", "faults": "none"}, 163904, true},
		{map[string]string{"n": "100000", "target": "3", "topology": "ring", "faults": "none"}, 700000, true},
		{map[string]string{"n": "8", "target": "3", "topology": "torus", "faults": "none"}, 0, false},
		{map[string]string{"n": "8", "target": "3", "topology": "ring", "faults": "crash/1"}, 0, false},
	} {
		got, ok := broadcastTotal(record{Workload: "broadcast", Params: c.params})
		if got != c.want || ok != c.ok {
			t.Errorf("%v: got %d, %v; want %d, %v", c.params, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareLabels(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 1.0, 0.8, 1.2}
	for _, c := range []struct {
		name         string
		base, head   []float64
		higherBetter bool
		want         string
	}{
		{"same", base, scale(base, 1.01), false, equivalent},
		{"slower", base, scale(base, 1.2), false, worse},
		{"faster", base, scale(base, 0.8), false, better},
		{"higher is better", base, scale(base, 1.2), true, better},
		{"lower throughput", base, scale(base, 0.8), true, worse},
		{"noisy", noisy, scale(noisy, 0.95), false, unresolved},
		{"noisy but every head sample ahead", noisy, scale(noisy, 0.4), false, better},
		{"noisy and every head sample behind", noisy, scale(noisy, 2.5), false, unresolved},
	} {
		if got, _ := label(c.base, c.head, 0.1, 0, c.higherBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// setup_s in milliseconds: a 50% change of a 4 ms median is within the
	// 20 ms floor, a 40 ms change beyond it.
	ms := []float64{0.004, 0.003, 0.005, 0.004, 0.006}
	if got, _ := label(ms, scale(ms, 1.5), 0.1, setupFloorS, false); got != equivalent {
		t.Errorf("setup within the floor: %s, want %s", got, equivalent)
	}
	if got, _ := label(ms, scale(ms, 11), 0.1, setupFloorS, false); got != worse {
		t.Errorf("setup beyond the floor: %s, want %s", got, worse)
	}

	// Two synthetic reports: every pair gets a label, host drift is flagged.
	mk := func(calib, f float64, failed int) *report {
		samples := make([]sample, len(base))
		for i, x := range base {
			samples[i] = sample{Metrics: map[string]float64{"wall_s": x * f}}
		}
		return &report{
			Host: host{CalibStartS: calib, CalibEndS: calib},
			Workloads: []workloadReport{{Name: "ring", Samples: samples, Attempted: 5, Failed: failed,
				Metrics: map[string]summary{"wall_s": {Unit: "s", Better: "lower", Bound: 0.1, Median: median(base) * f}}}},
		}
	}
	var buf bytes.Buffer
	compareReports(&buf, mk(0.2, 1, 0), mk(0.2, 1.01, 0))
	if out := buf.String(); !strings.Contains(out, "wall_s") || !strings.Contains(out, equivalent) || strings.Contains(out, "HOST DRIFT") {
		t.Errorf("same host, same timings:\n%s", out)
	}
	buf.Reset()
	compareReports(&buf, mk(0.2, 1, 0), mk(0.25, 1.3, 1))
	out := buf.String()
	if !strings.Contains(out, "HOST DRIFT") {
		t.Errorf("25%% calibration change not flagged:\n%s", out)
	}
	var labels []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "ring ") {
			f := strings.Fields(line)
			labels = append(labels, f[len(f)-1])
		}
	}
	sort.Strings(labels)
	if !reflect.DeepEqual(labels, []string{worse, worse}) {
		t.Errorf("slower head with a failed job: labels %v\n%s", labels, out)
	}
}
