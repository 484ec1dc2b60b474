package vlsi

import (
	"fmt"

	"repro/internal/clocksync"
	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The vlsi workload is DARTS-style clock generation (Section 5.3):
// Algorithm 1 over a placed-and-routed chip whose wire delays come from
// the default range, optionally scaled by a migration factor (a faster
// process node scales every wire uniformly, preserving all cycle ratios
// and hence Ξ). Dead modules (fab defects) are crash/K clauses of the
// shared faults= axis. The domain verdict is the Theorem 3 precision
// bound on admissible, complete runs.
func init() {
	workload.Register(workload.Source{
		Name: "vlsi",
		Doc:  "VLSI clock generation on a placed-and-routed chip (Section 5.3), with technology migration",
		Params: append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "4", Doc: "number of chip modules (n >= 3f+1)"},
			{Name: "f", Kind: workload.Int, Default: "1", Doc: "Byzantine fault bound"},
			{Name: "xi", Kind: workload.Rational, Default: "2", Doc: "model parameter Ξ"},
			{Name: "target", Kind: workload.Int, Default: "10", Doc: "tick every correct module must reach"},
			{Name: "min", Kind: workload.Rational, Default: "1", Doc: "default wire delay lower bound"},
			{Name: "max", Kind: workload.Rational, Default: "3/2", Doc: "default wire delay upper bound"},
			{Name: "scale", Kind: workload.Rational, Default: "1", Doc: "technology-migration factor applied to every wire"},
			{Name: "maxevents", Kind: workload.Int, Default: "400000", Doc: "receive-event budget"},
		}, append(workload.TopologyParams(), append(workload.FaultParams(), workload.TraceParams()...)...)...),
		Job:     vlsiJob,
		Verdict: vlsiVerdict,
		// The Theorem 3 precision check replays the recorded clock notes.
		VerdictNeedsTrace: true,
	})
}

func vlsiJob(v workload.Values, seed int64) (runner.Job, error) {
	n, f := v.Int("n"), v.Int("f")
	chip, err := NewChip(n, v.Rat("min"), v.Rat("max"))
	if err != nil {
		return runner.Job{}, err
	}
	if scale := v.Rat("scale"); !scale.Equal(rat.One) {
		if chip, err = chip.Migrate(scale); err != nil {
			return runner.Job{}, err
		}
	}
	topo, err := workload.ResolveTopology(v, n)
	if err != nil {
		return runner.Job{}, err
	}
	// The chip has no live Byzantine family (dead modules and stuck
	// drivers, not adversarial logic): the nil factory rejects byz
	// clauses, crash/script model fab defects and glitching wires.
	faults, net, err := workload.ResolveFaults(v, n, topo, nil)
	if err != nil {
		return runner.Job{}, err
	}
	if len(faults) > f {
		return runner.Job{}, fmt.Errorf("vlsi: fault spec %q injects %d faults, bound is f=%d", v.String("faults"), len(faults), f)
	}
	cfg := sim.Config{
		N:         n,
		Spawn:     clocksync.Spawner(n, f),
		Faults:    faults,
		Net:       net,
		Delays:    chip.DelayPolicy(),
		Topology:  topo,
		Seed:      seed,
		Until:     clocksync.AllReached(v.Int("target"), faults),
		MaxEvents: v.Int("maxevents"),
	}
	return runner.Job{Cfg: &cfg}, nil
}

// vlsiVerdict checks the Theorem 3 precision bound ⌈2Ξ⌉ — the property
// technology migration must preserve — on admissible, complete runs. The
// bound derives from r.Xi, the Ξ the admissibility check actually ran
// against (a sweep may override the xi parameter).
//
// The check only applies on the fully-connected fabric: Algorithm 1's
// quorum progress (and with it the Theorem 3 bound) is proven for
// all-to-all broadcast, so sparse-topology sweeps run the chip for
// admissibility and scale measurements without the precision claim.
func vlsiVerdict(v workload.Values, r *runner.JobResult) error {
	if v.String("topology") != "full" || !r.CompletedAdmissible(true) {
		return nil
	}
	// Theorem 3 assumes every broadcast arrives; lossy-wire sweeps run
	// the chip for admissibility only.
	if workload.NetFaulty(v) {
		return nil
	}
	return clocksync.CheckRealTimePrecision(r.Trace, r.Xi.MulInt(2).Ceil())
}
