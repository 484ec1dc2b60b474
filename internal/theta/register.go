package theta

import (
	"fmt"

	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The theta workload generates Θ-Model executions: all-to-all broadcast
// under delays drawn uniformly from [base, base·Θ], so the realized
// delay ratio is bounded by Θ by construction. Its domain verdict is the
// containment direction of Theorem 6: every Θ-admissible execution with
// Θ < Ξ must be ABC(Ξ)-admissible — the static Θ check must accept the
// trace, and whenever Θ < Ξ the ABC check must too.
func init() {
	workload.Register(workload.Source{
		Name: "theta",
		Doc:  "Θ-Model executions (delays within [base, base·Θ]) with the Theorem 6 containment verdict",
		Params: append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "4", Doc: "number of processes"},
			{Name: "steps", Kind: workload.Int, Default: "4", Doc: "broadcasting steps per process"},
			{Name: "base", Kind: workload.Rational, Default: "1", Doc: "minimum end-to-end delay τ−"},
			{Name: "theta", Kind: workload.Rational, Default: "7/4", Doc: "Θ bound on the delay ratio τ+/τ−"},
			{Name: "xi", Kind: workload.Rational, Default: "2", Doc: "model parameter Ξ for the ABC check"},
			{Name: "maxevents", Kind: workload.Int, Default: "0", Doc: "receive-event budget (0 = simulator default)"},
		}, workload.TraceParams()...),
		// CheckStatic scans every recorded message's realized delay.
		VerdictNeedsTrace: true,
		Job: func(v workload.Values, seed int64) (runner.Job, error) {
			base, th := v.Rat("base"), v.Rat("theta")
			if base.Sign() <= 0 {
				return runner.Job{}, fmt.Errorf("theta: base delay %v must be positive", base)
			}
			if th.Less(rat.One) {
				return runner.Job{}, fmt.Errorf("theta: Θ = %v must be at least 1", th)
			}
			cfg := sim.Config{
				N:         v.Int("n"),
				Spawn:     workload.BroadcastSpawner(v.Int("steps")),
				Delays:    sim.UniformDelay{Min: base, Max: base.Mul(th)},
				Seed:      seed,
				MaxEvents: v.Int("maxevents"),
			}
			return runner.Job{Cfg: &cfg}, nil
		},
		Verdict: func(v workload.Values, r *runner.JobResult) error {
			th := v.Rat("theta")
			if rep := CheckStatic(r.Trace, th); !rep.Admissible {
				return fmt.Errorf("theta: execution escaped its own Θ=%v bound: %s", th, rep.Reason)
			}
			// Theorem 6: Θ < Ξ forces ABC admissibility.
			if r.Verdict != nil && th.Less(r.Xi) && !r.Verdict.Admissible {
				return fmt.Errorf("theta: Θ(%v)-admissible execution rejected by ABC(%v) — Theorem 6 violated", th, r.Xi)
			}
			return nil
		},
	})
}
