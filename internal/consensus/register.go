package consensus

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/lockstep"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The consensus workload is the paper's headline consequence (Sections 2
// and 6): a synchronous Byzantine consensus algorithm running unchanged
// on ABC lock-step rounds. The algo parameter selects FloodSet (crash
// faults, f+1 rounds), PhaseKing (Byzantine, n > 4f, polynomial
// messages), or EIG (Byzantine, n >= 3f+1, exponential messages); the
// shared fault axis (workload.FaultParams) injects crash-at-step,
// Byzantine-equivocator, and scripted-noise adversaries, and the domain
// verdict is Spec.Check — termination, agreement, validity — over the
// final deciders. FloodSet rejects byz clauses: it tolerates crash
// faults only, and handing it an equivocator would report an algorithm
// limitation as a check failure.
func init() {
	workload.Register(workload.Source{
		Name: "consensus",
		Doc:  "synchronous consensus (floodset/phaseking/eig) on lock-step rounds, with the Spec.Check verdict",
		Params: append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "4", Doc: "number of processes (n >= 3f+1; phaseking needs n > 4f)"},
			{Name: "f", Kind: workload.Int, Default: "1", Doc: "fault bound; injected faults must not exceed it"},
			{Name: "algo", Kind: workload.String, Default: "eig", Doc: "consensus algorithm: floodset, phaseking, eig"},
			{Name: "xi", Kind: workload.Rational, Default: "2", Doc: "model parameter Ξ (round = ⌈2Ξ⌉ phases)"},
			{Name: "inputs", Kind: workload.String, Default: "alt", Doc: "input assignment: alt (p mod 2), id (p), const/V"},
			{Name: "rounds", Kind: workload.Int, Default: "-1", Doc: "lock-step rounds to run; -1 = the algorithm's requirement"},
			{Name: "min", Kind: workload.Rational, Default: "1", Doc: "minimum message delay"},
			{Name: "max", Kind: workload.Rational, Default: "3/2", Doc: "maximum message delay"},
			{Name: "maxevents", Kind: workload.Int, Default: "400000", Doc: "receive-event budget"},
		}, append(workload.FaultParams(), workload.TraceParams()...)...),
		Job:     consensusJob,
		Verdict: consensusVerdict,
		// The verdict gates on a verified-admissible run, and the batch
		// ABC check needs the complete trace.
		VerdictNeedsTrace: true,
	})
}

// algoRounds returns the lock-step rounds the algorithm needs to decide.
func algoRounds(algo string, f int) (int, error) {
	switch algo {
	case "floodset":
		return FloodSetRounds(f), nil
	case "phaseking":
		return PhaseKingRounds(f), nil
	case "eig":
		return EIGRounds(f), nil
	default:
		return 0, fmt.Errorf("consensus: unknown algo %q (want floodset, phaseking, eig)", algo)
	}
}

// inputFor parses the inputs spec into the per-process input assignment.
func inputFor(spec string) (func(p sim.ProcessID) int, error) {
	switch {
	case spec == "alt":
		return func(p sim.ProcessID) int { return int(p) % 2 }, nil
	case spec == "id":
		return func(p sim.ProcessID) int { return int(p) }, nil
	case strings.HasPrefix(spec, "const/"):
		var v int
		if _, err := fmt.Sscanf(spec, "const/%d", &v); err != nil {
			return nil, fmt.Errorf("consensus: inputs %q: want const/V", spec)
		}
		return func(sim.ProcessID) int { return v }, nil
	default:
		return nil, fmt.Errorf("consensus: unknown inputs %q (want alt, id, const/V)", spec)
	}
}

func consensusJob(v workload.Values, seed int64) (runner.Job, error) {
	n, f := v.Int("n"), v.Int("f")
	algo := v.String("algo")
	m, err := core.NewModel(v.Rat("xi"))
	if err != nil {
		return runner.Job{}, err
	}
	if f < 0 || n < 3*f+1 {
		return runner.Job{}, fmt.Errorf("consensus: lock-step substrate needs n >= 3f+1, got n=%d f=%d", n, f)
	}
	if algo == "phaseking" && n <= 4*f {
		return runner.Job{}, fmt.Errorf("consensus: phaseking needs n > 4f, got n=%d f=%d", n, f)
	}
	input, err := inputFor(v.String("inputs"))
	if err != nil {
		return runner.Job{}, err
	}
	rounds, err := algoRounds(algo, f)
	if err != nil {
		return runner.Job{}, err
	}
	if rv := v.Int("rounds"); rv >= 0 {
		rounds = rv
	}

	// The Byzantine family is round-level equivocation (TwoFaced): the
	// strongest attack that leaves the clock substrate undisturbed. The
	// budget is unused — TwoFaced runs Algorithm 1 faithfully, so its
	// traffic is already bounded by the run's round target. FloodSet is a
	// crash-fault algorithm: a live Byzantine adversary defeats it by
	// design, so byz clauses are a configuration error there.
	var byz workload.ByzFactory
	switch algo {
	case "eig":
		byz = func(i int, id sim.ProcessID, budget int) sim.Process {
			return NewTwoFaced(m, n, f, SplitEIG(n, id, 0, 1))
		}
	case "phaseking":
		byz = func(i int, id sim.ProcessID, budget int) sim.Process {
			return NewTwoFaced(m, n, f, SplitVotes(0, 1))
		}
	case "floodset":
		if strings.Contains(v.String("faults"), "byz") {
			return runner.Job{}, fmt.Errorf("consensus: floodset tolerates crash faults only (fault spec %q)", v.String("faults"))
		}
	}
	faults, net, err := workload.ResolveFaults(v, n, nil, byz)
	if err != nil {
		return runner.Job{}, err
	}
	if len(faults) > f {
		return runner.Job{}, fmt.Errorf("consensus: fault spec %q injects %d faults, bound is f=%d", v.String("faults"), len(faults), f)
	}

	mkApp := func(p sim.ProcessID) lockstep.App {
		switch algo {
		case "floodset":
			return NewFloodSet(f, input(p))
		case "phaseking":
			return NewPhaseKing(n, f, input(p))
		default:
			return NewEIG(n, f, input(p))
		}
	}
	cfg := sim.Config{
		N:         n,
		Spawn:     lockstep.Spawner(m, n, f, mkApp),
		Faults:    faults,
		Net:       net,
		Delays:    sim.UniformDelay{Min: v.Rat("min"), Max: v.Rat("max")},
		Seed:      seed,
		Until:     lockstep.AllReachedRound(rounds, faults),
		MaxEvents: v.Int("maxevents"),
	}
	return runner.Job{Cfg: &cfg}, nil
}

// consensusVerdict runs Spec.Check over the final deciders. Fault
// membership is reconstructed from the trace's faulty markers (which the
// engine stamps from the injected fault map), inputs from the resolved
// parameters, so the verdict works on any completed admissible run.
// Consensus correctness presupposes lock-step rounds, which presuppose
// admissibility (Theorem 5) — runs without an ABC verdict are skipped.
func consensusVerdict(v workload.Values, r *runner.JobResult) error {
	if !r.CompletedAdmissible(true) {
		return nil
	}
	// Synchronous consensus presupposes reliable rounds; under message
	// drops/partitions only the admissibility verdict stands. A recovered
	// process, in contrast, needs no gate: it counts against f, the trace
	// marks it faulty for the whole run, and the fault map rebuilt below
	// therefore excludes it from the agreement/validity quantifiers.
	if workload.NetFaulty(v) {
		return nil
	}
	input, err := inputFor(v.String("inputs"))
	if err != nil {
		return err
	}
	faults := make(map[sim.ProcessID]sim.Fault)
	for p, bad := range r.Trace.Faulty {
		if bad {
			faults[sim.ProcessID(p)] = sim.Fault{CrashAfter: sim.NeverCrash}
		}
	}
	apps := make([]Decider, len(r.Sim.Procs))
	initial := make(map[sim.ProcessID]int, len(r.Sim.Procs))
	for id := range r.Sim.Procs {
		p := sim.ProcessID(id)
		initial[p] = input(p)
		if _, bad := faults[p]; bad {
			continue
		}
		ls, ok := r.Sim.Procs[id].(*lockstep.Proc)
		if !ok {
			return fmt.Errorf("consensus: correct process %d is not a lockstep.Proc", id)
		}
		apps[id] = ls.App().(Decider)
	}
	return Spec{Initial: initial, Faults: faults}.Check(apps)
}
