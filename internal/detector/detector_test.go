package detector

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

func TestChainLen(t *testing.T) {
	tests := []struct {
		xi   rat.Rat
		want int
	}{
		{rat.FromInt(2), 4},
		{rat.New(3, 2), 3},
		{rat.New(5, 4), 3},
		{rat.FromInt(3), 6},
	}
	for _, tt := range tests {
		if got := ChainLen(tt.xi); got != tt.want {
			t.Errorf("ChainLen(%v) = %d, want %d", tt.xi, got, tt.want)
		}
	}
}

// monitorConfig builds the Fig. 3 system: monitor 0, partner 1, target 2.
func monitorConfig(xi rat.Rat, delays sim.DelayPolicy, faults map[sim.ProcessID]sim.Fault, seed int64) sim.Config {
	return sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			if p == 0 {
				return &Monitor{Partner: 1, Targets: []sim.ProcessID{2}, ChainLen: ChainLen(xi)}
			}
			return Responder{}
		},
		Faults:    faults,
		Delays:    delays,
		Seed:      seed,
		MaxEvents: 10000,
	}
}

func TestCompletenessCrashedTargetSuspected(t *testing.T) {
	xi := rat.FromInt(2)
	res, err := sim.Run(monitorConfig(xi,
		sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		map[sim.ProcessID]sim.Fault{2: sim.Silent()}, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Procs[0].(*Monitor)
	if !m.done {
		t.Fatal("chain never completed")
	}
	if !m.Suspects(2) {
		t.Error("crashed target not suspected (completeness violated)")
	}
	if m.AccuracyViolations != 0 {
		t.Error("spurious accuracy violations")
	}
}

// Accuracy: over many admissible executions with adversarial delay spreads,
// a correct target is never suspected. Inadmissible runs are skipped — the
// guarantee is conditional on the ABC synchrony condition, which is the
// whole point.
func TestAccuracyCorrectTargetNeverSuspected(t *testing.T) {
	xi := rat.FromInt(2)
	admissible, suspectedCorrect, skipped := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		// Wide delay spread: replies are often nearly too slow.
		res, err := sim.Run(monitorConfig(xi,
			sim.UniformDelay{Min: rat.One, Max: rat.New(19, 10)}, nil, seed))
		if err != nil {
			t.Fatal(err)
		}
		g := causality.Build(res.Trace, causality.Options{})
		v, err := check.ABC(g, xi)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admissible {
			skipped++
			continue
		}
		admissible++
		m := res.Procs[0].(*Monitor)
		if m.Suspects(2) {
			suspectedCorrect++
		}
		if m.AccuracyViolations > 0 {
			t.Errorf("seed %d: reply after suspicion in admissible run", seed)
		}
	}
	if admissible == 0 {
		t.Fatal("no admissible runs at all")
	}
	if suspectedCorrect > 0 {
		t.Errorf("correct target suspected in %d/%d admissible runs", suspectedCorrect, admissible)
	}
	t.Logf("admissible=%d skipped=%d", admissible, skipped)
}

// The converse experiment: when the reply is slower than the model allows,
// the monitor wrongly suspects — and the checker flags the execution as
// violating Ξ. The synchrony condition is exactly the price of accuracy.
func TestSlowReplyIsInadmissible(t *testing.T) {
	xi := rat.FromInt(2)
	delays := sim.OverrideDelay{
		Base: sim.ConstantDelay{D: rat.One},
		Match: func(m sim.Message) bool {
			_, isReply := m.Payload.(Reply)
			return isReply
		},
		Override: sim.ConstantDelay{D: rat.FromInt(50)},
	}
	res, err := sim.Run(monitorConfig(xi, delays, nil, 7))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Procs[0].(*Monitor)
	if !m.Suspects(2) {
		t.Fatal("slow reply not suspected")
	}
	if m.AccuracyViolations == 0 {
		t.Fatal("late reply did not register as accuracy violation")
	}
	g := causality.Build(res.Trace, causality.Options{})
	v, err := check.ABC(g, xi)
	if err != nil {
		t.Fatal(err)
	}
	if v.Admissible {
		t.Error("execution with late reply is admissible — the timeout argument would be unsound")
	}
}

func TestOmegaElectsCorrectLeader(t *testing.T) {
	// n = 5, f = 1: core = {0, 1, 2}; process 0 crashes. All correct
	// processes must eventually agree on leader 1 (smallest correct core
	// member).
	xi := rat.FromInt(2)
	core := []sim.ProcessID{0, 1, 2}
	faults := map[sim.ProcessID]sim.Fault{0: sim.Crash(3)}
	res, err := sim.Run(sim.Config{
		N: 5,
		Spawn: func(p sim.ProcessID) sim.Process {
			for _, c := range core {
				if p == c {
					return &OmegaCore{Core: core, ChainLen: ChainLen(xi), MaxPhase: 8}
				}
			}
			return &OmegaFollower{}
		},
		Faults:    faults,
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      3,
		MaxEvents: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []sim.ProcessID{1, 2} {
		oc := res.Procs[p].(*OmegaCore)
		if oc.Leader() != 1 {
			t.Errorf("core member %d elected %d, want 1", p, oc.Leader())
		}
		if !oc.Suspects(0) {
			t.Errorf("core member %d does not suspect crashed 0", p)
		}
		if oc.Suspects(1) || oc.Suspects(2) {
			t.Errorf("core member %d suspects a correct member", p)
		}
	}
	for _, p := range []sim.ProcessID{3, 4} {
		f := res.Procs[p].(*OmegaFollower)
		leader, heard := f.Leader()
		if !heard {
			t.Errorf("follower %d heard no announcement", p)
		} else if leader != 1 {
			t.Errorf("follower %d adopted leader %d, want 1", p, leader)
		}
	}
}

// omegaRingConfig builds Ω on a ring fabric: the core runs on the
// CoreTopology overlay (pairwise Query/Ping needs direct links), and
// every process relays announcements so they flood hop by hop — the
// satellite-2 scenario where a plain broadcast would reach only the
// core's immediate ring neighbors.
func omegaRingConfig(n int, core []sim.ProcessID, faults map[sim.ProcessID]sim.Fault, seed int64) sim.Config {
	xi := rat.FromInt(2)
	topo := CoreTopology(sim.Ring(n), core)
	return sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			if int(p) < len(core) {
				return &OmegaCore{Core: core, ChainLen: ChainLen(xi), MaxPhase: 6, Relay: true}
			}
			return &OmegaFollower{Relay: true}
		},
		Faults:    faults,
		Topology:  topo,
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      seed,
		MaxEvents: 200000,
	}
}

// TestOmegaRingDissemination pins leader dissemination beyond one hop:
// on an 8-ring with core {0,1,2} and core member 0 silent, every correct
// core member elects 1 and every follower — including 4, 5, 6, three to
// four hops from any core member — hears and adopts leader 1.
func TestOmegaRingDissemination(t *testing.T) {
	core := []sim.ProcessID{0, 1, 2}
	res, err := sim.Run(omegaRingConfig(8, core,
		map[sim.ProcessID]sim.Fault{0: sim.Silent()}, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("ring run truncated — relaying did not terminate")
	}
	for _, p := range []sim.ProcessID{1, 2} {
		oc := res.Procs[p].(*OmegaCore)
		if !oc.Suspects(0) {
			t.Errorf("core member %d does not suspect silent 0", p)
		}
		if oc.Leader() != 1 {
			t.Errorf("core member %d elected %d, want 1", p, oc.Leader())
		}
	}
	for p := sim.ProcessID(3); p < 8; p++ {
		f := res.Procs[p].(*OmegaFollower)
		leader, heard := f.Leader()
		if !heard {
			t.Errorf("follower %d heard no announcement through the ring", p)
		} else if leader != 1 {
			t.Errorf("follower %d adopted leader %d, want 1", p, leader)
		}
	}
}

// TestOmegaRingWithoutRelayStrands shows why satellite 2 matters: the
// same ring without relaying leaves far followers deaf — the core's
// broadcasts stop at its ring neighbors.
func TestOmegaRingWithoutRelayStrands(t *testing.T) {
	xi := rat.FromInt(2)
	core := []sim.ProcessID{0, 1, 2}
	n := 8
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			if int(p) < len(core) {
				return &OmegaCore{Core: core, ChainLen: ChainLen(xi), MaxPhase: 6}
			}
			return &OmegaFollower{}
		},
		Topology:  CoreTopology(sim.Ring(n), core),
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      9,
		MaxEvents: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	deaf := 0
	for p := sim.ProcessID(3); int(p) < n; p++ {
		if _, heard := res.Procs[p].(*OmegaFollower).Leader(); !heard {
			deaf++
		}
	}
	if deaf == 0 {
		t.Fatal("every follower heard without relaying — the regression scenario no longer reproduces")
	}
}

func TestCoreTopology(t *testing.T) {
	core := []sim.ProcessID{0, 1, 2}
	if CoreTopology(nil, core) != nil {
		t.Error("nil (fully connected) base must stay nil")
	}
	topo := CoreTopology(sim.Ring(6), core)
	// Core pairs are always linked, even non-adjacent ones.
	if !topo.Linked(0, 2) {
		t.Error("core pair 0-2 not linked by the overlay")
	}
	// Non-core pairs follow the base ring.
	if !topo.Linked(3, 4) {
		t.Error("ring edge 3-4 lost")
	}
	if topo.Linked(3, 5) {
		t.Error("chord 3-5 invented outside the core")
	}
	// Core-to-follower links also follow the base.
	if !topo.Linked(2, 3) {
		t.Error("ring edge 2-3 lost")
	}
	if topo.Linked(0, 4) {
		t.Error("core member 0 linked to distant follower 4")
	}

	// Every pair, the diagonal included, agrees with the overlay's
	// predicate form: linked iff both ends are core members or the base
	// links them.
	for _, tc := range []struct {
		name string
		base *sim.Links
		core []sim.ProcessID
	}{
		{"ring", sim.Ring(8), core},
		{"torus", sim.Torus(3, 4), []sim.ProcessID{0, 1, 2, 3}},
		{"islands", sim.Islands(9, 3), []sim.ProcessID{0, 1, 2, 3, 4}},
	} {
		inCore := make(map[sim.ProcessID]bool, len(tc.core))
		for _, q := range tc.core {
			inCore[q] = true
		}
		topo := CoreTopology(tc.base, tc.core)
		if topo.N() != tc.base.N() {
			t.Fatalf("%s: overlay spans %d processes, base %d", tc.name, topo.N(), tc.base.N())
		}
		for from := sim.ProcessID(0); int(from) < topo.N(); from++ {
			for to := sim.ProcessID(0); int(to) < topo.N(); to++ {
				want := (inCore[from] && inCore[to]) || tc.base.Linked(from, to)
				if got := topo.Linked(from, to); got != want {
					t.Errorf("%s: Linked(%d, %d) = %v, want %v", tc.name, from, to, got, want)
				}
			}
		}
	}
}

func TestOmegaFaultFree(t *testing.T) {
	xi := rat.FromInt(2)
	core := []sim.ProcessID{0, 1, 2}
	res, err := sim.Run(sim.Config{
		N: 4,
		Spawn: func(p sim.ProcessID) sim.Process {
			if int(p) < len(core) {
				return &OmegaCore{Core: core, ChainLen: ChainLen(xi), MaxPhase: 5}
			}
			return &OmegaFollower{}
		},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      4,
		MaxEvents: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core {
		oc := res.Procs[p].(*OmegaCore)
		if oc.Leader() != 0 {
			t.Errorf("member %d elected %d, want 0 (no crashes)", p, oc.Leader())
		}
		if oc.Phase() == 0 {
			t.Errorf("member %d made no phase progress", p)
		}
	}
}
