package check_test

import (
	"runtime"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRingCriticalRatioAtScale runs the 1000-process ring broadcast over
// 30 steps (6.1·10^4 events), a size at which a strictness scale growing
// with the edge count overflowed int64 in the ratio search. The critical
// ratio must come out, and the streaming checker must agree with it:
// inadmissible at Ξ = ratio, admissible at ratio + 1/1000.
func TestRingCriticalRatioAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and checks a 6.1·10^4-event run")
	}
	src, ok := workload.Lookup("broadcast")
	if !ok {
		t.Fatal("broadcast workload not registered")
	}
	v, err := src.Resolve(map[string]string{"n": "1000", "topology": "ring", "target": "30"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := src.Jobs(v, []int64{1}, workload.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(*jobs[0].Cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := causality.Build(res.Trace, causality.Options{})
	ratio, found, err := check.MaxRelevantRatio(g)
	if err != nil || !found || !ratio.Equal(rat.New(4, 3)) {
		t.Fatalf("MaxRelevantRatio on V=%d = %v (found=%v, err=%v), want 4/3", g.NumNodes(), ratio, found, err)
	}
	for _, tt := range []struct {
		xi   rat.Rat
		want bool
	}{
		{ratio, false},
		{ratio.Add(rat.New(1, 1000)), true},
	} {
		inc, err := check.NewIncremental(res.Trace, tt.xi, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		verdict, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		if verdict.Admissible != tt.want {
			t.Errorf("Incremental at Ξ=%v: admissible=%v, want %v", tt.xi, verdict.Admissible, tt.want)
		}
	}
}

// TestWatchedRatioSearchBytesPerNode is the memory regression test of the
// end-of-run critical-ratio search of a watched job: it must solve the
// watcher's own constraint store, allocating only Bellman–Ford scratch
// (16 B of distance, 4 of predecessor and 4 of walk stamp per node) and
// the relaxation plan (4 B per arc plus an 8 B-per-node counting array),
// about 44 B per node on a ring. A second copy of the constraints as an
// edge list costs 32 B per arc, over 100 B per node, before regrowth.
func TestWatchedRatioSearchBytesPerNode(t *testing.T) {
	src, ok := workload.Lookup("broadcast")
	if !ok {
		t.Fatal("broadcast workload not registered")
	}
	v, err := src.Resolve(map[string]string{"n": "5000", "topology": "ring", "target": "10", "trace": "window/4096"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := src.Jobs(v, []int64{1}, workload.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := check.NewWatcher(rat.FromInt(2), causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := *jobs[0].Cfg
	cfg.Monitor = w.Monitor
	res, err := sim.Run(cfg)
	if err != nil || res.MonitorErr != nil {
		t.Fatalf("run: %v, monitor: %v", err, res.MonitorErr)
	}
	nodes := w.Graph().NumNodes() // finalizes the graph, as runner does before the search
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ratio, found, err := w.MaxRelevantRatio()
	runtime.ReadMemStats(&after)
	if err != nil || !found || !ratio.Equal(rat.New(4, 3)) {
		t.Fatalf("ratio = %v (found=%v, err=%v), want 4/3", ratio, found, err)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes)
	t.Logf("%d nodes: the ratio search allocated %.1f B per node", nodes, per)
	if per > 64 {
		t.Fatalf("ratio search allocated %.1f B per graph node, want <= 64", per)
	}
}
