package clocksync

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The clocksync workload is Algorithm 1 — Byzantine fault-tolerant tick
// generation — run until every correct clock reaches the target. Its
// domain verdict checks the Section 3 theorems on admissible, complete
// runs: progress (Thm. 1), monotonicity, real-time precision ⌈2Ξ⌉
// (Thm. 3), the causal-cone property (Lemma 4), synchrony on consistent
// cuts (Thm. 2), and bounded progress with ϱ = 2⌈2Ξ⌉+1 (Thm. 4).
func init() {
	workload.Register(workload.Source{
		Name: "clocksync",
		Doc:  "Byzantine clock synchronization (Algorithm 1) with Section 3 theorem monitors",
		Params: append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "4", Doc: "number of processes (n >= 3f+1)"},
			{Name: "f", Kind: workload.Int, Default: "1", Doc: "Byzantine fault bound: faults=byz/K (or any process-claiming clause) may claim at most f processes"},
			{Name: "xi", Kind: workload.Rational, Default: "2", Doc: "model parameter Ξ"},
			{Name: "target", Kind: workload.Int, Default: "10", Doc: "clock value every correct process must reach"},
			{Name: "min", Kind: workload.Rational, Default: "1", Doc: "minimum message delay"},
			{Name: "max", Kind: workload.Rational, Default: "3/2", Doc: "maximum message delay"},
			{Name: "maxevents", Kind: workload.Int, Default: "200000", Doc: "receive-event budget"},
		}, append(workload.FaultParams(), workload.TraceParams()...)...),
		Job:     clockSyncJob,
		Verdict: clockSyncVerdict,
		// The Section 3 monitors replay the recorded clock notes and the
		// execution graph — bounded retention cannot support them.
		VerdictNeedsTrace: true,
	})
}

// ByzFactory is the workload.ByzFactory behind byz/K fault clauses for
// Algorithm 1 and the protocols built on it (lockstep): the deterministic
// adversary assortment, seeded by faultseed (the job seed when negative).
func ByzFactory(v workload.Values, seed int64) workload.ByzFactory {
	fseed := v.Int64("faultseed")
	if fseed < 0 {
		fseed = seed
	}
	return func(i int, id sim.ProcessID, budget int) sim.Process {
		return Adversary(i, uint64(fseed), budget)
	}
}

func clockSyncJob(v workload.Values, seed int64) (runner.Job, error) {
	n, f := v.Int("n"), v.Int("f")
	if f < 0 || n < 3*f+1 {
		return runner.Job{}, fmt.Errorf("clocksync: need n >= 3f+1, got n=%d f=%d", n, f)
	}
	faults, net, err := workload.ResolveFaults(v, n, nil, ByzFactory(v, seed))
	if err != nil {
		return runner.Job{}, err
	}
	if len(faults) > f {
		return runner.Job{}, fmt.Errorf("clocksync: fault spec %q injects %d faults, bound is f=%d", v.String("faults"), len(faults), f)
	}
	cfg := sim.Config{
		N:         n,
		Spawn:     Spawner(n, f),
		Faults:    faults,
		Net:       net,
		Delays:    sim.UniformDelay{Min: v.Rat("min"), Max: v.Rat("max")},
		Seed:      seed,
		Until:     AllReached(v.Int("target"), faults),
		MaxEvents: v.Int("maxevents"),
	}
	return runner.Job{Cfg: &cfg}, nil
}

// clockSyncVerdict runs the Section 3 theorem monitors. The theorems
// presuppose an admissible execution and a completed run, so inadmissible,
// truncated, or watch-aborted results are skipped rather than failed. The
// bounds derive from r.Xi — the Ξ the admissibility check actually ran
// against, which a sweep may have overridden past the xi parameter.
func clockSyncVerdict(v workload.Values, r *runner.JobResult) error {
	if !r.CompletedAdmissible(true) {
		return nil
	}
	// The Section 3 theorems assume a reliable network; under message-level
	// faults only the admissibility verdict stands. Recovered processes
	// need no special case: they are marked faulty for the whole run and
	// count against f, so every correct-process claim already skips them.
	if workload.NetFaulty(v) {
		return nil
	}
	x := r.Xi.MulInt(2).Ceil() // precision bound X = ⌈2Ξ⌉
	if err := CheckProgress(r.Trace, v.Int("target")); err != nil {
		return err
	}
	if err := CheckMonotone(r.Trace); err != nil {
		return err
	}
	if err := CheckRealTimePrecision(r.Trace, x); err != nil {
		return err
	}
	if err := CheckCausalCone(r.Trace, x); err != nil {
		return err
	}
	g := r.Graph
	if g == nil {
		g = causality.Build(r.Trace, causality.Options{})
	}
	if err := CheckConsistentCutSynchrony(g, x); err != nil {
		return err
	}
	return CheckBoundedProgress(g, 2*x+1)
}
