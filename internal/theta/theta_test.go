package theta

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func broadcastSpawn(steps int) func(sim.ProcessID) sim.Process {
	return func(sim.ProcessID) sim.Process {
		return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
			if env.StepIndex() < steps {
				env.Broadcast(env.StepIndex())
			}
		})
	}
}

func TestCheckStatic(t *testing.T) {
	res, err := sim.Run(sim.Config{
		N:      3,
		Spawn:  broadcastSpawn(3),
		Delays: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := CheckStatic(res.Trace, rat.FromInt(2))
	if !r.Admissible {
		t.Errorf("delays in [1, 3/2] rejected for Θ=2: %s", r.Reason)
	}
	r = CheckStatic(res.Trace, rat.New(11, 10))
	if r.Admissible && r.MaxDelay.Div(r.MinDelay).Greater(rat.New(11, 10)) {
		t.Error("ratio above Θ accepted")
	}
}

func TestZeroDelayBreaksEveryTheta(t *testing.T) {
	// Fig. 1 contains the zero-delay message m3: ABC-admissible for Ξ = 2
	// but statically Θ-inadmissible for every Θ — the strictness direction
	// of the containment (M_ABC ⊄ M_Θ).
	fig := scenario.BuildFig1()
	v, err := check.ABC(fig.Graph, rat.FromInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatal("Fig.1 should be ABC(2)-admissible")
	}
	for _, theta := range []rat.Rat{rat.New(3, 2), rat.FromInt(10), rat.FromInt(1000)} {
		if r := CheckStatic(fig.Trace, theta); r.Admissible {
			t.Errorf("zero-delay trace accepted for Θ=%v", theta)
		}
	}
}

func TestCheckDynamic(t *testing.T) {
	// Growing delays: statically unbounded ratio over time, but the
	// in-transit ratio stays bounded.
	res, err := sim.Run(sim.Config{
		N:      3,
		Spawn:  broadcastSpawn(8),
		Delays: sim.GrowingDelay{Base: rat.One, Rate: rat.New(1, 4), Spread: rat.New(5, 4)},
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	static := CheckStatic(res.Trace, rat.FromInt(2))
	dynamic := CheckDynamic(res.Trace, rat.FromInt(3))
	if static.Admissible {
		t.Log("note: growth too slow to break static Θ=2 in this prefix")
	}
	if !dynamic.Admissible {
		t.Errorf("dynamic Θ=3 rejected growing delays: %s", dynamic.Reason)
	}
}

func TestDynamicTighterThanStatic(t *testing.T) {
	// A slow early message and fast late message never overlap: dynamic
	// admissible, static not.
	b := sim.NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 10, "slow") // delay 10
	b.MsgAt(1, 1, 0, 11, "fast") // delay 1, starts at t=10
	tr := b.MustBuild()
	if r := CheckStatic(tr, rat.FromInt(2)); r.Admissible {
		t.Error("static check accepted ratio-10 delays")
	}
	if r := CheckDynamic(tr, rat.FromInt(2)); !r.Admissible {
		t.Errorf("dynamic check rejected non-overlapping messages: %s", r.Reason)
	}
}

func TestFaultyMessagesExempt(t *testing.T) {
	// Messages from faulty processes are not constrained by Θ.
	b := sim.NewTraceBuilder(2)
	b.SetFaulty(1)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, "correct") // delay 1
	b.MsgAt(1, 1, 0, 50, "faulty") // delay 49, but sender faulty
	if r := CheckStatic(b.MustBuild(), rat.FromInt(2)); !r.Admissible {
		t.Errorf("faulty message constrained: %s", r.Reason)
	}
}

func TestEmptyTrace(t *testing.T) {
	b := sim.NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	tr := b.MustBuild()
	if r := CheckStatic(tr, rat.FromInt(2)); !r.Admissible || r.Messages != 0 {
		t.Error("empty trace mishandled")
	}
	if r := CheckDynamic(tr, rat.FromInt(2)); !r.Admissible {
		t.Error("empty trace mishandled by dynamic check")
	}
}

// Theorem 9 bridge: the execution retimed with the normalized assignment
// of an admissible ABC graph is Θ-admissible for Θ = Ξ, even when the
// original timing was not Θ-admissible for any Θ.
func TestRetimedAssignmentThetaAdmissible(t *testing.T) {
	fig := scenario.BuildFig1() // contains a zero-delay message
	xi := rat.FromInt(2)
	v, err := check.ABC(fig.Graph, xi)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatal("Fig.1 not admissible at Ξ=2")
	}
	if r := CheckStatic(fig.Trace, rat.FromInt(1000)); r.Admissible {
		t.Fatal("original Fig.1 timing Θ-admissible despite its zero-delay message")
	}
	tr, err := v.Assignment.Retime()
	if err != nil {
		t.Fatal(err)
	}
	r := CheckStatic(tr, xi)
	if !r.Admissible {
		t.Fatalf("retimed execution not Θ(Ξ)-admissible: %s", r.Reason)
	}
	if r.MinDelay.LessEq(rat.One) || r.MaxDelay.GreaterEq(xi) {
		t.Errorf("retimed delays [%v, %v] outside (1, Ξ)", r.MinDelay, r.MaxDelay)
	}
	if want := len(correctMessages(fig.Trace)); r.Messages != want {
		t.Errorf("retimed trace has %d correct messages, original %d", r.Messages, want)
	}
}

// Theorem 6 direction at the theta package level: executions passing
// CheckStatic with Θ < Ξ are ABC-admissible.
func TestStaticThetaImpliesABC(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res, err := sim.Run(sim.Config{
			N:      4,
			Spawn:  broadcastSpawn(4),
			Delays: sim.UniformDelay{Min: rat.One, Max: rat.New(7, 4)},
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := CheckStatic(res.Trace, rat.New(7, 4)); !r.Admissible {
			t.Fatalf("seed %d: Θ-scheduled run not Θ-admissible: %s", seed, r.Reason)
		}
		g := causality.Build(res.Trace, causality.Options{})
		v, err := check.ABC(g, rat.FromInt(2))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admissible {
			t.Fatalf("seed %d: Θ(7/4)-admissible execution not ABC(2)-admissible", seed)
		}
	}
}
