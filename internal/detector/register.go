package detector

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The omega workload is Section 6's Ω sketch: the f+2 core members
// {0..f+1} monitor each other with ⌈2Ξ⌉ timeout chains in repeated
// phases and broadcast the smallest unsuspected core id; the remaining
// processes are followers adopting the highest-phase announcement. On
// sparse fabrics the core runs on a fully connected overlay
// (CoreTopology) and every process relays announcements, flooding them
// hop by hop. The fault axis is crash-only — Ω here is a crash-fault
// detector, so byz clauses are rejected; recover clauses model crash
// with repair and drive re-election — and crash clauses claim IDs
// n-1 downward: with followers present they crash followers first; set
// n = f+2 (or an explicit pI target) to aim them at core members.
func init() {
	workload.Register(workload.Source{
		Name: "omega",
		Doc:  "Ω failure detector (Section 6 sketch): f+2-member core, phase-wise timeout chains, leader dissemination",
		Params: append(append([]workload.Param{
			{Name: "n", Kind: workload.Int, Default: "5", Doc: "number of processes (core is {0..f+1}, the rest follow)"},
			{Name: "f", Kind: workload.Int, Default: "1", Doc: "crash-fault bound; at most f core members may crash"},
			{Name: "xi", Kind: workload.Rational, Default: "2", Doc: "model parameter Ξ (timeout chain = ⌈2Ξ⌉ messages)"},
			{Name: "phases", Kind: workload.Int, Default: "6", Doc: "monitoring phases each core member runs"},
			{Name: "min", Kind: workload.Rational, Default: "1", Doc: "minimum message delay"},
			{Name: "max", Kind: workload.Rational, Default: "3/2", Doc: "maximum message delay"},
			{Name: "maxevents", Kind: workload.Int, Default: "200000", Doc: "receive-event budget"},
		}, workload.TopologyParams()...), append(workload.FaultParams(), workload.TraceParams()...)...),
		Job:     omegaJob,
		Verdict: omegaVerdict,
		// The verdict gates on a verified-admissible run, and the batch
		// ABC check needs the complete trace.
		VerdictNeedsTrace: true,
	})
}

// omegaCoreIDs returns the core {0..f+1}.
func omegaCoreIDs(f int) []sim.ProcessID {
	core := make([]sim.ProcessID, f+2)
	for i := range core {
		core[i] = sim.ProcessID(i)
	}
	return core
}

func omegaJob(v workload.Values, seed int64) (runner.Job, error) {
	n, f := v.Int("n"), v.Int("f")
	if f < 0 || n < f+2 {
		return runner.Job{}, fmt.Errorf("omega: core needs f+2 processes, got n=%d f=%d", n, f)
	}
	phases := v.Int("phases")
	if phases < 1 {
		return runner.Job{}, fmt.Errorf("omega: need at least one phase, got %d", phases)
	}
	base, err := workload.ResolveTopology(v, n)
	if err != nil {
		return runner.Job{}, err
	}
	core := omegaCoreIDs(f)
	topo := CoreTopology(base, core)
	// Crash-only fault axis: the nil ByzFactory rejects byz clauses, and
	// scripted noise is rejected explicitly — a scripted process counts as
	// faulty yet keeps responding, which is neither a crash (completeness
	// would wrongly demand its suspicion) nor correct behavior.
	if strings.Contains(v.String("faults"), "script") {
		return runner.Job{}, fmt.Errorf("omega: crash faults only (fault spec %q)", v.String("faults"))
	}
	faults, net, err := workload.ResolveFaults(v, n, topo, nil)
	if err != nil {
		return runner.Job{}, err
	}
	crashedCore := 0
	for p := range faults {
		if int(p) < len(core) {
			crashedCore++
		}
	}
	if crashedCore > f {
		return runner.Job{}, fmt.Errorf("omega: fault spec %q crashes %d core members, bound is f=%d", v.String("faults"), crashedCore, f)
	}
	// Relaying is needed (and enabled) exactly when the base fabric is
	// sparse; on the fully connected default every broadcast already
	// reaches everyone and relays would only add traffic.
	relay := base != nil
	cfg := sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			if int(p) < len(core) {
				return &OmegaCore{Core: core, ChainLen: ChainLen(v.Rat("xi")), MaxPhase: phases, Relay: relay}
			}
			return &OmegaFollower{Relay: relay}
		},
		Faults:    faults,
		Net:       net,
		Topology:  topo,
		Delays:    sim.UniformDelay{Min: v.Rat("min"), Max: v.Rat("max")},
		Seed:      seed,
		MaxEvents: v.Int("maxevents"),
	}
	return runner.Job{Cfg: &cfg}, nil
}

// connectedTopology reports whether the topology spec guarantees a
// strongly connected graph, making follower dissemination checkable. The
// randomized generators (regular, scalefree) and islands give no such
// guarantee, so follower checks are skipped there.
func connectedTopology(spec string) bool {
	name, _, _ := strings.Cut(spec, "/")
	return name == "full" || name == "ring" || name == "torus"
}

// omegaVerdict checks the Ω guarantees on a completed admissible run:
// every correct core member finishes all phases, never suspects a
// correct core member (strong accuracy — the Fig. 3 argument applied per
// phase), suspects every silent-from-the-start core member (strong
// completeness), and elects a plausible leader — exactly the smallest
// surviving core id when all core crashes are silent, some non-silent
// core member otherwise (crashes at a positive step and recoveries leave
// phases in transient disagreement, so only the membership claim is
// timing-independent; a recovered member is a legitimate winner, which is
// exactly the re-election the dedicated recovery test pins down). On
// connected topologies every correct follower must have heard and
// adopted a leader meeting the same bound. The crash/recovery schedule
// is reconstructed from the fault parameters, which omegaJob already
// validated. Timeout chains presuppose a reliable network — a dropped
// chain message suspends the phase, not the member — so under
// message-level faults only the admissibility verdict stands.
func omegaVerdict(v workload.Values, r *runner.JobResult) error {
	if !r.CompletedAdmissible(true) {
		return nil
	}
	n, f, phases := v.Int("n"), v.Int("f"), v.Int("phases")
	faults, net, err := workload.ResolveFaults(v, n, nil, nil)
	if err != nil {
		return err
	}
	if net != nil {
		return nil
	}
	core := omegaCoreIDs(f)
	silentCore := make(map[sim.ProcessID]bool)
	transient := false // crashes at a positive step, or down/up schedules
	for p, ft := range faults {
		if int(p) < len(core) && ft.CrashAfter == 0 {
			silentCore[p] = true
		} else if ft.CrashAfter > 0 || len(ft.Down) > 0 {
			transient = true
		}
	}
	// The expected leader when suspicion has converged identically at
	// every member: the smallest core id that is not silent from the
	// start. Transient faults only weaken the claim to membership.
	expect := sim.ProcessID(-1)
	for _, q := range core {
		if !silentCore[q] {
			expect = q
			break
		}
	}
	leaderOK := func(who string, p, leader sim.ProcessID) error {
		if !transient {
			if leader != expect {
				return fmt.Errorf("omega: %s %d elected %d, want %d", who, p, leader, expect)
			}
			return nil
		}
		if int(leader) >= len(core) || silentCore[leader] {
			return fmt.Errorf("omega: %s %d elected %d, not a live core member", who, p, leader)
		}
		return nil
	}

	for _, p := range core {
		if _, bad := faults[p]; bad {
			continue
		}
		oc, ok := r.Sim.Procs[p].(*OmegaCore)
		if !ok {
			return fmt.Errorf("omega: process %d is not an OmegaCore", p)
		}
		if oc.Phase() != phases {
			return fmt.Errorf("omega: core member %d finished %d/%d phases", p, oc.Phase(), phases)
		}
		for _, q := range core {
			if q == p {
				continue
			}
			if _, bad := faults[q]; !bad && oc.Suspects(q) {
				return fmt.Errorf("omega: core member %d suspects correct member %d (accuracy)", p, q)
			}
			if silentCore[q] && !oc.Suspects(q) {
				return fmt.Errorf("omega: core member %d does not suspect silent member %d (completeness)", p, q)
			}
		}
		if err := leaderOK("core member", p, oc.Leader()); err != nil {
			return err
		}
	}
	if !connectedTopology(v.String("topology")) {
		return nil
	}
	for p := sim.ProcessID(len(core)); int(p) < n; p++ {
		if _, bad := faults[p]; bad {
			continue
		}
		fo, ok := r.Sim.Procs[p].(*OmegaFollower)
		if !ok {
			return fmt.Errorf("omega: process %d is not an OmegaFollower", p)
		}
		leader, heard := fo.Leader()
		if !heard {
			return fmt.Errorf("omega: follower %d heard no announcement", p)
		}
		if err := leaderOK("follower", p, leader); err != nil {
			return err
		}
	}
	return nil
}
