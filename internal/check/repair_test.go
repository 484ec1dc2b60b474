package check_test

import (
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
