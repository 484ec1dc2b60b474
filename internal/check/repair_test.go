package check_test

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/workload"
)

// denseMeshRun simulates the 64-process full-mesh broadcast with a
// 4096-event retention window for target broadcasting steps per process,
// checking ABC(Ξ=2) event by event through an Incremental, and returns
// the monitor after the run.
func denseMeshRun(t *testing.T, target int) *check.Incremental {
	t.Helper()
	src, ok := workload.Lookup("broadcast")
	if !ok {
		t.Fatal("broadcast workload not registered")
	}
	v, err := src.Resolve(map[string]string{
		"n": "64", "target": strconv.Itoa(target), "trace": "window/4096", "maxevents": "16777216"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := src.Jobs(v, []int64{1}, workload.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := *jobs[0].Cfg
	var inc *check.Incremental
	cfg.Monitor = func(tr *sim.Trace) error {
		if inc == nil {
			var err error
			if inc, err = check.NewIncremental(tr, rat.FromInt(2), causality.Options{}); err != nil {
				return err
			}
		}
		verdict, err := inc.Step()
		if err == nil && !verdict.Admissible {
			err = check.ErrInadmissible
		}
		return err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorErr != nil || res.Truncated {
		t.Fatalf("target=%d: monitor error %v, truncated %v", target, res.MonitorErr, res.Truncated)
	}
	return inc
}

// TestIncrementalRepairDepthFlat is the repair-cascade regression: on the
// dense mesh, the nodes a repair moves per inserted arc must not grow with
// the run. A potential seeded at the latest schedule drags every lowering
// back through the whole causal past, and this ratio climbs with the run
// length (34 → 54 → 84 at target 10/20/40).
func TestIncrementalRepairDepthFlat(t *testing.T) {
	var lo, hi float64
	for i, target := range []int{10, 20, 40} {
		st := denseMeshRun(t, target).Stats()
		per := float64(st.Finalized) / float64(st.Inserted)
		t.Logf("target=%d: %+v, %.2f finalized per arc", target, st, per)
		if i == 0 || per < lo {
			lo = per
		}
		if i == 0 || per > hi {
			hi = per
		}
	}
	if hi-lo > 0.05*hi {
		t.Fatalf("nodes finalized per inserted arc range over [%.2f, %.2f]; want flat within 5%%", lo, hi)
	}
}

// TestIncrementalCertifyDenseMesh materializes the Theorem 7 certificate
// from the live potential at the end of a long run, exercising the
// negated-potential conversion at scale.
func TestIncrementalCertifyDenseMesh(t *testing.T) {
	inc := denseMeshRun(t, 10)
	v, err := inc.Certify()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible || v.Assignment == nil {
		t.Fatalf("verdict %+v, want admissible with an assignment", v)
	}
	if err := v.Assignment.Validate(rat.FromInt(2)); err != nil {
		t.Fatal(err)
	}
}

// meshTrace simulates the 64-process full-mesh broadcast for 5
// broadcasting steps per process with delays in [1, 3/2], admissible at
// Ξ = 2 throughout.
func meshTrace(t *testing.T) *sim.Trace {
	t.Helper()
	proc := sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
		if env.StepIndex() < 5 {
			env.Broadcast(env.StepIndex())
		}
	})
	res, err := sim.Run(sim.Config{
		N:         64,
		Spawn:     func(sim.ProcessID) sim.Process { return proc },
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      1,
		MaxEvents: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// watchEachEvent feeds tr to a new Watcher at Ξ = 2 one event at a time,
// as a per-event Monitor does, and returns the watcher.
func watchEachEvent(t *testing.T, tr *sim.Trace) *check.Watcher {
	t.Helper()
	w, err := check.NewWatcher(rat.FromInt(2), causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shell := &sim.Trace{N: tr.N, Msgs: tr.Msgs, Faulty: tr.Faulty}
	for j := 1; j <= len(tr.Events); j++ {
		shell.Events = tr.Events[:j]
		if err := w.Monitor(shell); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestWatcherAllocsPerEvent is the storage regression for the checker's
// flat arc arrays: watching the 64-process full mesh one event at a time
// must cost amortized slice growth only, not heap objects per node or
// arc (a slice of arcs per node costs about 2.2 per event).
func TestWatcherAllocsPerEvent(t *testing.T) {
	tr := meshTrace(t)
	allocs := testing.AllocsPerRun(1, func() { watchEachEvent(t, tr) })
	per := allocs / float64(len(tr.Events))
	t.Logf("%d events, %.0f allocations, %.3f per event", len(tr.Events), allocs, per)
	if per > 0.1 {
		t.Fatalf("%.3f allocations per consumed event, want <= 0.1", per)
	}
}

// TestWatcherBytesPerEvent is the byte budget of a watched run: the live
// heap that watching the 64-process full mesh leaves behind, graph plus
// checker, per consumed event. The execution graph stores 8 B per node
// and 12 B per edge, neither with a pointer; a node that also held its
// event time (a 24-byte rational) and an edge that held its message ID
// cost about 193 B per event here.
func TestWatcherBytesPerEvent(t *testing.T) {
	tr := meshTrace(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := watchEachEvent(t, tr)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	runtime.KeepAlive(tr)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(tr.Events))
	t.Logf("%d events: %.1f B of live heap per event", len(tr.Events), per)
	if per > 130 {
		t.Fatalf("watching left %.1f B of live heap per consumed event, want <= 130", per)
	}
}
