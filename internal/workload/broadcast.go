package workload

import (
	"repro/internal/runner"
	"repro/internal/sim"
)

// BroadcastSpawner returns the canonical traffic generator shared by the
// broadcast and theta workloads: every process broadcasts its step index
// on each of its first steps steps. The generator is stateless, so one
// ProcessFunc is shared by all N processes — at sparse scale a fresh
// closure per process is a visible slice of a run's allocations.
func BroadcastSpawner(steps int) func(sim.ProcessID) sim.Process {
	proc := sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
		if env.StepIndex() < steps {
			env.Broadcast(env.StepIndex())
		}
	})
	return func(sim.ProcessID) sim.Process { return proc }
}

// The broadcast workload is the registry's built-in minimal scenario:
// every process broadcasts on each of its first `target` steps under
// uniform delays. It has no algorithm-level claims — no domain verdict —
// which makes it the canonical substrate for admissibility sweeps
// (cmd/abcsim's historical default for -watch demos) and for registry
// plumbing tests that need a real simulation without domain coupling.
func init() {
	Register(Source{
		Name: "broadcast",
		Doc:  "all-to-all broadcast under uniform delays (no algorithm claims)",
		Params: append([]Param{
			{Name: "n", Kind: Int, Default: "4", Doc: "number of processes"},
			{Name: "target", Kind: Int, Default: "10", Doc: "broadcasting steps per process"},
			{Name: "xi", Kind: Rational, Default: "2", Doc: "model parameter Ξ for admissibility checks"},
			{Name: "min", Kind: Rational, Default: "1", Doc: "minimum message delay"},
			{Name: "max", Kind: Rational, Default: "3/2", Doc: "maximum message delay"},
			{Name: "maxevents", Kind: Int, Default: "0", Doc: "receive-event budget (0 = simulator default)"},
		}, append(TopologyParams(), append(FaultParams(), TraceParams()...)...)...),
		Job: func(v Values, seed int64) (runner.Job, error) {
			topo, err := ResolveTopology(v, v.Int("n"))
			if err != nil {
				return runner.Job{}, err
			}
			// No algorithm, no adversary family: crash/script/recover
			// clauses carve holes in the traffic, the net-fault clauses
			// perturb its delivery, byz is rejected.
			faults, net, err := ResolveFaults(v, v.Int("n"), topo, nil)
			if err != nil {
				return runner.Job{}, err
			}
			cfg := sim.Config{
				N:         v.Int("n"),
				Spawn:     BroadcastSpawner(v.Int("target")),
				Faults:    faults,
				Net:       net,
				Delays:    sim.UniformDelay{Min: v.Rat("min"), Max: v.Rat("max")},
				Topology:  topo,
				Seed:      seed,
				MaxEvents: v.Int("maxevents"),
			}
			return runner.Job{Cfg: &cfg}, nil
		},
	})
}
