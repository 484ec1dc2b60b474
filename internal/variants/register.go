package variants

import (
	"fmt"

	"repro/internal/lockstep"
	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The variants workload is the ◇ABC eventual lock-step construction of
// Section 6: doubling round durations over chaotic delays that become
// well-behaved at the switch time. It declares no "xi" parameter — the
// perpetual synchrony condition deliberately fails before the switch —
// so sweeps check admissibility only when they set an explicit Ξ. The
// domain verdict is eventual lock-step: from some round on, every correct
// round computation received all correct round messages.
func init() {
	workload.Register(workload.Source{
		Name: "variants",
		Doc:  "◇ABC eventual lock-step via doubling rounds (Section 6): chaos until the switch, stability after",
		Params: append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "4", Doc: "number of processes (n >= 3f+1)"},
			{Name: "f", Kind: workload.Int, Default: "1", Doc: "Byzantine fault bound"},
			{Name: "x0", Kind: workload.Int64, Default: "2", Doc: "initial round length in phases (round r lasts x0·2^r)"},
			{Name: "target", Kind: workload.Int, Default: "5", Doc: "round every correct process must start"},
			{Name: "chaosmax", Kind: workload.Rational, Default: "5", Doc: "maximum delay before the switch (minimum 0: zero-delay chaos)"},
			{Name: "switch", Kind: workload.Rational, Default: "12", Doc: "time at which delays become well-behaved"},
			{Name: "min", Kind: workload.Rational, Default: "1", Doc: "minimum delay after the switch"},
			{Name: "max", Kind: workload.Rational, Default: "3/2", Doc: "maximum delay after the switch"},
			{Name: "maxevents", Kind: workload.Int, Default: "300000", Doc: "receive-event budget"},
		}, workload.TraceParams()...),
		Job: func(v workload.Values, seed int64) (runner.Job, error) {
			n, f := v.Int("n"), v.Int("f")
			if f < 0 || n < 3*f+1 {
				return runner.Job{}, fmt.Errorf("variants: need n >= 3f+1, got n=%d f=%d", n, f)
			}
			x0 := v.Int64("x0")
			if x0 <= 0 {
				return runner.Job{}, fmt.Errorf("variants: x0 = %d must be positive", x0)
			}
			switchAt := v.Rat("switch")
			cfg := sim.Config{
				N: n,
				Spawn: func(sim.ProcessID) sim.Process {
					return lockstep.NewWithBoundary(n, f, lockstep.EchoApp{}, DoublingBoundary(x0))
				},
				// Chaotic delays for messages sent before the switch,
				// well-behaved ones from then on.
				Delays: sim.OverrideDelay{
					Base:     sim.UniformDelay{Min: v.Rat("min"), Max: v.Rat("max")},
					Match:    func(m sim.Message) bool { return m.SendTime.Less(switchAt) },
					Override: sim.UniformDelay{Min: rat.Zero, Max: v.Rat("chaosmax")},
				},
				Seed:      seed,
				Until:     lockstep.AllReachedRound(v.Int("target"), nil),
				MaxEvents: v.Int("maxevents"),
			}
			return runner.Job{Cfg: &cfg}, nil
		},
		Verdict: func(v workload.Values, r *runner.JobResult) error {
			// Eventual lock-step does not presuppose perpetual
			// admissibility (this is the ◇ model), so no ABC verdict is
			// required — but a sweep that did check and found the suffix
			// claim's precondition violated still skips.
			if !r.CompletedAdmissible(false) {
				return nil
			}
			if _, ok := FirstCompleteRound(r.Sim.Procs, nil); !ok {
				return fmt.Errorf("variants: no stable round suffix — eventual lock-step failed")
			}
			return nil
		},
	})
}
