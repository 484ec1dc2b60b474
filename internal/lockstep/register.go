package lockstep

import (
	"fmt"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// EchoApp is the trivial round application: round 0 carries the process
// ID, round r carries r. It exercises the full lock-step machinery with
// deterministic payloads and is the app behind the lockstep workload,
// cmd/abcsim sweeps, and the experiments.
type EchoApp struct{}

// Init implements App.
func (EchoApp) Init(self sim.ProcessID, n int) any { return int(self) }

// Round implements App.
func (EchoApp) Round(r int, received []any) any { return r }

// The lockstep workload is Algorithm 2 — lock-step rounds over the
// Algorithm 1 clock — run until every correct process starts the target
// round. Its domain verdict is Theorem 5: every round computation of a
// correct process received the previous-round message of every correct
// process.
func init() {
	workload.Register(workload.Source{
		Name: "lockstep",
		Doc:  "lock-step round simulation (Algorithm 2) with the Theorem 5 verdict",
		Params: append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "4", Doc: "number of processes (n >= 3f+1)"},
			{Name: "f", Kind: workload.Int, Default: "1", Doc: "Byzantine fault bound: faults=byz/K (or any process-claiming clause) may claim at most f processes"},
			{Name: "xi", Kind: workload.Rational, Default: "2", Doc: "model parameter Ξ (round = ⌈2Ξ⌉ phases)"},
			{Name: "target", Kind: workload.Int, Default: "6", Doc: "round every correct process must start"},
			{Name: "min", Kind: workload.Rational, Default: "1", Doc: "minimum message delay"},
			{Name: "max", Kind: workload.Rational, Default: "3/2", Doc: "maximum message delay"},
			{Name: "maxevents", Kind: workload.Int, Default: "300000", Doc: "receive-event budget"},
		}, append(workload.FaultParams(), workload.TraceParams()...)...),
		Job:     lockStepJob,
		Verdict: lockStepVerdict,
		// Theorem 5 presupposes a verified-admissible run, and the batch
		// ABC check it gates on needs the complete trace.
		VerdictNeedsTrace: true,
	})
}

func lockStepJob(v workload.Values, seed int64) (runner.Job, error) {
	n, f := v.Int("n"), v.Int("f")
	m, err := core.NewModel(v.Rat("xi"))
	if err != nil {
		return runner.Job{}, err
	}
	if f < 0 || n < 3*f+1 {
		return runner.Job{}, fmt.Errorf("lockstep: need n >= 3f+1, got n=%d f=%d", n, f)
	}
	faults, net, err := workload.ResolveFaults(v, n, nil, clocksync.ByzFactory(v, seed))
	if err != nil {
		return runner.Job{}, err
	}
	if len(faults) > f {
		return runner.Job{}, fmt.Errorf("lockstep: fault spec %q injects %d faults, bound is f=%d", v.String("faults"), len(faults), f)
	}
	cfg := sim.Config{
		N:         n,
		Spawn:     Spawner(m, n, f, func(sim.ProcessID) App { return EchoApp{} }),
		Faults:    faults,
		Net:       net,
		Delays:    sim.UniformDelay{Min: v.Rat("min"), Max: v.Rat("max")},
		Seed:      seed,
		Until:     AllReachedRound(v.Int("target"), faults),
		MaxEvents: v.Int("maxevents"),
	}
	return runner.Job{Cfg: &cfg}, nil
}

// lockStepVerdict checks Theorem 5 against the final process states.
// Membership in the fault set is reconstructed from the trace (the
// non-uniform check needs only which processes were faulty), so the
// verdict works on any completed admissible run. Theorem 5 presupposes
// admissibility, so a run without an ABC verdict is skipped.
func lockStepVerdict(v workload.Values, r *runner.JobResult) error {
	if !r.CompletedAdmissible(true) {
		return nil
	}
	// Theorem 5 assumes a reliable network: a dropped round message is a
	// counterexample by construction, not an algorithm bug. Recovered
	// processes need no gate — they are marked faulty for the whole run,
	// so traceFaults already excludes them from the correct set.
	if workload.NetFaulty(v) {
		return nil
	}
	return CheckLockStep(r.Sim.Procs, traceFaults(r.Trace))
}

// traceFaults rebuilds a membership-only fault map from the trace's
// faulty markers.
func traceFaults(t *sim.Trace) map[sim.ProcessID]sim.Fault {
	var faults map[sim.ProcessID]sim.Fault
	for p, bad := range t.Faulty {
		if bad {
			if faults == nil {
				faults = make(map[sim.ProcessID]sim.Fault)
			}
			faults[sim.ProcessID(p)] = sim.Fault{CrashAfter: sim.NeverCrash}
		}
	}
	return faults
}
