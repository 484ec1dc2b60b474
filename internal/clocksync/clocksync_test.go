package clocksync

import (
	"fmt"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/rat"
	"repro/internal/sim"
)

// runSync runs Algorithm 1 with the given fault map until all correct
// clocks reach targetClock, returning the trace and graph. Delays are
// drawn from [1, theta] (Θ-scheduling, which Theorem 6 guarantees is
// ABC-admissible when Θ < Ξ).
func runSync(t *testing.T, n, f int, faults map[sim.ProcessID]sim.Fault, targetClock int, theta rat.Rat, seed int64) (*sim.Trace, *causality.Graph) {
	t.Helper()
	res, err := sim.Run(sim.Config{
		N:         n,
		Spawn:     Spawner(n, f),
		Faults:    faults,
		Delays:    sim.UniformDelay{Min: rat.One, Max: theta},
		Seed:      seed,
		Until:     AllReached(targetClock, faults),
		MaxEvents: 150000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("run truncated before clocks reached target")
	}
	return res.Trace, causality.Build(res.Trace, causality.Options{})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(3, 1) did not panic (needs n >= 3f+1)")
		}
	}()
	New(3, 1)
}

func TestFaultFreeProgress(t *testing.T) {
	model := core.MustModel(rat.FromInt(2))
	tr, g := runSync(t, 4, 1, nil, 20, rat.New(3, 2), 1)

	v, err := check.ABC(g, model.Xi())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatalf("Θ-scheduled execution not admissible: witness %v", v.Witness)
	}
	if err := CheckProgress(tr, 20); err != nil {
		t.Error(err)
	}
	if err := CheckMonotone(tr); err != nil {
		t.Error(err)
	}
}

func TestTheoremsFaultFree(t *testing.T) {
	model := core.MustModel(rat.FromInt(2))
	x := model.PrecisionBound() // 4
	tr, g := runSync(t, 4, 1, nil, 15, rat.New(3, 2), 2)

	if err := CheckCausalCone(tr, x); err != nil {
		t.Errorf("Lemma 4: %v", err)
	}
	if err := CheckRealTimePrecision(tr, x); err != nil {
		t.Errorf("Theorem 3: %v", err)
	}
	if err := CheckConsistentCutSynchrony(g, x); err != nil {
		t.Errorf("Theorem 2: %v", err)
	}
	if err := CheckBoundedProgress(g, model.BoundedProgressRho()); err != nil {
		t.Errorf("Theorem 4: %v", err)
	}
}

// TestCutSynchronyReportsFirstViolatingCut runs the Theorem 2 check with
// a bound below the execution's precision, so several cones violate it.
// The error must name the first violating cone in node order (cones are
// checked before real-time cuts), as a reference scan over the cones
// finds it.
func TestCutSynchronyReportsFirstViolatingCut(t *testing.T) {
	tr, g := runSync(t, 4, 1, nil, 15, rat.New(3, 2), 1)
	const bound = 1
	correct := tr.CorrectProcesses()
	var violating []causality.NodeID
	var spreads []int
	for id := range causality.NodeID(g.NumNodes()) {
		cut := g.CausalCone(id)
		lo, hi := -1, -1
		for _, p := range correct {
			f := cut.Frontier(p)
			if f < 0 {
				lo = -1
				break
			}
			c, _ := clockOf(tr.Events[f])
			if lo == -1 || c < lo {
				lo = c
			}
			hi = max(hi, c)
		}
		if lo >= 0 && hi-lo > bound {
			violating = append(violating, id)
			spreads = append(spreads, hi-lo)
		}
	}
	if len(violating) < 2 {
		t.Fatalf("%d cones violate bound %d; the test needs several", len(violating), bound)
	}
	want := fmt.Sprintf("clocksync: cut cone(%v) has spread %d > %d", g.Node(violating[0]), spreads[0], bound)
	err := CheckConsistentCutSynchrony(g, bound)
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

func TestWithCrashFault(t *testing.T) {
	model := core.MustModel(rat.FromInt(2))
	x := model.PrecisionBound()
	faults := map[sim.ProcessID]sim.Fault{3: sim.Crash(5)}
	tr, g := runSync(t, 4, 1, faults, 12, rat.New(3, 2), 3)

	v, err := check.ABC(g, model.Xi())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatalf("execution not admissible: witness %v", v.Witness)
	}
	if err := CheckProgress(tr, 12); err != nil {
		t.Error(err)
	}
	if err := CheckCausalCone(tr, x); err != nil {
		t.Errorf("Lemma 4: %v", err)
	}
	if err := CheckRealTimePrecision(tr, x); err != nil {
		t.Errorf("Theorem 3: %v", err)
	}
	if err := CheckConsistentCutSynchrony(g, x); err != nil {
		t.Errorf("Theorem 2: %v", err)
	}
}

func TestWithByzantineAdversaries(t *testing.T) {
	model := core.MustModel(rat.FromInt(2))
	x := model.PrecisionBound()
	cases := []struct {
		name string
		n, f int
		seed int64
	}{
		{"n4f1", 4, 1, 4},
		{"n7f2", 7, 2, 5},
		{"n10f3", 10, 3, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := Adversaries(tc.n, tc.f, uint64(tc.seed))
			tr, g := runSync(t, tc.n, tc.f, faults, 10, rat.New(3, 2), tc.seed)

			v, err := check.ABC(g, model.Xi())
			if err != nil {
				t.Fatal(err)
			}
			if !v.Admissible {
				t.Fatalf("execution not admissible: witness %v", v.Witness)
			}
			if err := CheckProgress(tr, 10); err != nil {
				t.Error(err)
			}
			if err := CheckMonotone(tr); err != nil {
				t.Error(err)
			}
			if err := CheckCausalCone(tr, x); err != nil {
				t.Errorf("Lemma 4: %v", err)
			}
			if err := CheckRealTimePrecision(tr, x); err != nil {
				t.Errorf("Theorem 3: %v", err)
			}
			if err := CheckConsistentCutSynchrony(g, x); err != nil {
				t.Errorf("Theorem 2: %v", err)
			}
			if err := CheckBoundedProgress(g, model.BoundedProgressRho()); err != nil {
				t.Errorf("Theorem 4: %v", err)
			}
		})
	}
}

func TestSilentByzantineMinority(t *testing.T) {
	// f completely silent processes: the remaining n-f >= 2f+1 correct
	// processes still make progress (advance needs n-f ticks).
	faults := map[sim.ProcessID]sim.Fault{6: sim.Silent(), 5: sim.Silent()}
	tr, _ := runSync(t, 7, 2, faults, 10, rat.New(3, 2), 7)
	if err := CheckProgress(tr, 10); err != nil {
		t.Error(err)
	}
}

func TestRationalXi(t *testing.T) {
	// Ξ = 3/2: X = ⌈3⌉ = 3.
	model := core.MustModel(rat.New(3, 2))
	x := model.PrecisionBound()
	if x != 3 {
		t.Fatalf("X = %d, want 3", x)
	}
	tr, g := runSync(t, 4, 1, nil, 10, rat.New(5, 4), 8)
	v, err := check.ABC(g, model.Xi())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatalf("not admissible at Ξ=3/2: %v", v.Witness)
	}
	if err := CheckCausalCone(tr, x); err != nil {
		t.Errorf("Lemma 4: %v", err)
	}
	if err := CheckRealTimePrecision(tr, x); err != nil {
		t.Errorf("Theorem 3: %v", err)
	}
}

func TestCatchUpRule(t *testing.T) {
	// A process whose links are slow and heavily reordering receives late
	// ticks out of order and catches up via the f+1 rule, jumping its
	// clock by more than one in a single step. (Admissibility is not the
	// point of this test; the catch-up code path is.)
	n, f := 4, 1
	slowLinks := map[sim.Link]sim.DelayPolicy{}
	for p := sim.ProcessID(0); p < 3; p++ {
		slowLinks[sim.Link{From: p, To: 3}] = sim.UniformDelay{Min: rat.FromInt(20), Max: rat.FromInt(60)}
	}
	res, err := sim.Run(sim.Config{
		N:     n,
		Spawn: Spawner(n, f),
		Delays: sim.PerLinkDelay{
			Default: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Links:   slowLinks,
		},
		Seed:      9,
		Until:     AllReached(8, nil),
		MaxEvents: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p3 must have executed a catch-up step: some single step raising its
	// clock by more than 1.
	prev := 0
	jumped := false
	for _, ev := range res.Trace.Events {
		if ev.Proc != 3 {
			continue
		}
		if c, ok := clockOf(ev); ok {
			if c > prev+1 {
				jumped = true
			}
			prev = c
		}
	}
	if !jumped {
		t.Error("late starter never caught up by more than one tick")
	}
	if err := CheckMonotone(res.Trace); err != nil {
		t.Error(err)
	}
}

func TestNoteAnnotations(t *testing.T) {
	tr, _ := runSync(t, 4, 0, nil, 5, rat.New(3, 2), 10)
	sawDistinguished := false
	for _, ev := range tr.Events {
		if n, ok := ev.Note.(Note); ok && n.Advanced && n.Broadcast {
			sawDistinguished = true
		}
	}
	if !sawDistinguished {
		t.Error("no distinguished events recorded")
	}
}

func TestMessageComplexityBounded(t *testing.T) {
	// Each process broadcasts each tick at most once: total tick messages
	// <= n * (maxClock+2) * n recipients.
	tr, _ := runSync(t, 4, 0, nil, 10, rat.New(3, 2), 11)
	maxClock := 0
	for _, ev := range tr.Events {
		if c, ok := clockOf(ev); ok && c > maxClock {
			maxClock = c
		}
	}
	ticks := 0
	for _, m := range tr.Msgs {
		if _, ok := m.Payload.(Tick); ok {
			ticks++
		}
	}
	bound := 4 * (maxClock + 2) * 4
	if ticks > bound {
		t.Errorf("sent %d tick messages, [once] bound is %d", ticks, bound)
	}
}
