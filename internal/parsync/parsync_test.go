package parsync

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

func TestCheckAdmissible(t *testing.T) {
	// A well-behaved round-robin execution passes generous (Φ, Δ).
	res, err := sim.Run(sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 5 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := Check(res.Trace, 1000, 1000)
	if !r.Admissible {
		t.Errorf("benign trace rejected: %s", r.Reason)
	}
	if Check(res.Trace, 1, 1).Admissible {
		t.Error("trace accepted with Φ=Δ=1; should be too tight")
	}
}

func TestCheckDetectsSlowMessage(t *testing.T) {
	b := sim.NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	// p0 sends to p1; p1 replies instantly many times... build a long
	// one-way stream so ticks accumulate, then a slow message.
	b.MsgAt(0, 0, 1, 1, "a") // tick delay small
	b.MsgAt(0, 0, 1, 2, "b") // q1 event 2
	b.MsgAt(1, 1, 0, 30, "slow")
	tr := b.MustBuild()
	r := Check(tr, 100, 1)
	if r.Admissible {
		t.Error("slow message passed Δ=1")
	}
}

// The Fig. 8 game: for every adversary (Φ, Δ), the Prover's execution is
// ABC(Ξ)-admissible, contains a constraining relevant cycle, and violates
// ParSync(Φ, Δ).
func TestProverWinsGame(t *testing.T) {
	xi := rat.FromInt(2)
	adversaryChoices := []struct{ phi, delta int }{
		{2, 2}, {5, 3}, {10, 10}, {20, 7}, {50, 50},
	}
	for _, adv := range adversaryChoices {
		tr, err := ProverExecution(adv.phi, adv.delta, xi)
		if err != nil {
			t.Fatal(err)
		}
		g := causality.Build(tr, causality.Options{})

		// ABC-admissible for the Prover's Ξ.
		v, err := check.ABC(g, xi)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admissible {
			t.Fatalf("(Φ=%d, Δ=%d): prover execution not ABC(%v)-admissible: %v",
				adv.phi, adv.delta, xi, v.Witness)
		}
		// Genuinely constrained: it has a relevant cycle with ratio > 1.
		_, constrained, err := check.MaxRelevantRatio(g)
		if err != nil {
			t.Fatal(err)
		}
		if !constrained {
			t.Fatalf("(Φ=%d, Δ=%d): prover execution has no constraining cycle", adv.phi, adv.delta)
		}
		// And it violates the adversary's ParSync parameters.
		r := Check(tr, adv.phi, adv.delta)
		if r.Admissible {
			t.Fatalf("(Φ=%d, Δ=%d): prover execution is ParSync-admissible (gap=%d, delay=%d)",
				adv.phi, adv.delta, r.MaxStepGap, r.MaxDelay)
		}
	}
}

func TestProverExecutionRatioNearXi(t *testing.T) {
	// The witness's critical ratio stays strictly below Ξ but its |Z−|
	// scales with the adversary's parameters.
	xi := rat.FromInt(3)
	tr, err := ProverExecution(30, 10, xi)
	if err != nil {
		t.Fatal(err)
	}
	g := causality.Build(tr, causality.Options{})
	ratio, found, err := check.MaxRelevantRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no constraining cycle in prover execution")
	}
	if !ratio.Less(xi) {
		t.Errorf("critical ratio %v not below Ξ=%v", ratio, xi)
	}
	if ratio.LessEq(rat.One) {
		t.Errorf("critical ratio %v suspiciously small", ratio)
	}
}

func TestProverExecutionValidation(t *testing.T) {
	if _, err := ProverExecution(3, 3, rat.One); err == nil {
		t.Error("Ξ = 1 accepted")
	}
	// Witnesses past the event budget are refused before allocation: Φ
	// itself too large (a quarter of the int range), and L + 2k + 3 too
	// large at Φ = 10^5, Ξ = 2.
	for _, phi := range []int{1 << (strconv.IntSize - 2), 100000} {
		if _, err := ProverExecution(phi, 3, rat.FromInt(2)); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("Φ = %d: err = %v, want the event-budget error", phi, err)
		}
	}
	if _, err := ProverExecution(1000, 3, rat.FromInt(2)); err != nil {
		t.Errorf("Φ = 1000 rejected: %v", err)
	}
}

func TestCheckSkipsFaulty(t *testing.T) {
	b := sim.NewTraceBuilder(2)
	b.SetFaulty(1)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, "x")
	b.MsgAt(1, 1, 0, 40, "fromFaulty")
	r := Check(b.MustBuild(), 10, 2)
	if !r.Admissible {
		t.Errorf("faulty process constrained ParSync check: %s", r.Reason)
	}
}

// checkQuadratic is Check as it stood before the one-pass delay scan: for
// each message it scans every event for the receive and resolves the
// sending step by a linear search of the sender's events. It is the
// reference of TestCheckMatchesQuadratic.
func checkQuadratic(t *sim.Trace, phi, delta int) Report {
	r := Report{Admissible: true}
	correct := make([]bool, t.N)
	for _, p := range t.CorrectProcesses() {
		correct[p] = true
	}
	tickOf := make([]int, len(t.Events))
	tick := 0
	for i, ev := range t.Events {
		if ev.Processed {
			tickOf[i] = tick
			tick++
		} else {
			tickOf[i] = -1
		}
	}
	lastStep := make([]int, t.N)
	for i, ev := range t.Events {
		if tickOf[i] < 0 || !correct[ev.Proc] {
			continue
		}
		if gap := tickOf[i] - lastStep[ev.Proc]; gap > r.MaxStepGap {
			r.MaxStepGap = gap
		}
		lastStep[ev.Proc] = tickOf[i]
	}
	if r.MaxStepGap > phi {
		r.Admissible = false
		r.Reason = fmt.Sprintf("step gap %d exceeds Φ = %d", r.MaxStepGap, phi)
	}
	eventAt := func(p sim.ProcessID, index int) int {
		for i, ev := range t.Events {
			if ev.Proc == p && ev.Index == index {
				return i
			}
		}
		return -1
	}
	for _, m := range t.Msgs {
		if m.IsWakeup() || m.SendStep < 0 || !correct[m.From] || !correct[m.To] {
			continue
		}
		sendPos := eventAt(m.From, m.SendStep)
		if sendPos < 0 || tickOf[sendPos] < 0 {
			continue
		}
		recvTick := -1
		for i, ev := range t.Events {
			if ev.Proc == m.To && ev.Trigger == m.ID {
				recvTick = tickOf[i]
				break
			}
		}
		if recvTick < 0 {
			continue
		}
		if d := recvTick - tickOf[sendPos]; d > r.MaxDelay {
			r.MaxDelay = d
		}
	}
	if r.MaxDelay > delta {
		r.Admissible = false
		if r.Reason != "" {
			r.Reason += "; "
		}
		r.Reason += fmt.Sprintf("message delay %d ticks exceeds Δ = %d", r.MaxDelay, delta)
	}
	return r
}

// TestCheckMatchesQuadratic pins Check's one-pass delay scan against the
// quadratic reference: the whole Report, Reason included, on Fig. 8
// witnesses, seeded broadcast runs with crashed processes, and a trace
// with a faulty sender.
func TestCheckMatchesQuadratic(t *testing.T) {
	type tc struct {
		name string
		tr   *sim.Trace
	}
	var cases []tc
	for _, adv := range []struct{ phi, delta int }{{2, 2}, {5, 3}, {20, 7}, {64, 200}} {
		tr, err := ProverExecution(adv.phi, adv.delta, rat.FromInt(2))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("prover Φ=%d Δ=%d", adv.phi, adv.delta), tr})
	}
	for seed := int64(1); seed <= 6; seed++ {
		crashes := map[sim.ProcessID]sim.Fault{
			sim.ProcessID(seed % 4): sim.Crash(int(seed % 3)),
		}
		if seed%2 == 0 {
			crashes[sim.ProcessID((seed+1)%4)] = sim.Crash(0)
		}
		res, err := sim.Run(sim.Config{
			N: 4,
			Spawn: func(p sim.ProcessID) sim.Process {
				return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
					if env.StepIndex() < 6 {
						env.Broadcast(env.StepIndex())
					}
				})
			},
			Delays: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(4)},
			Faults: crashes,
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("broadcast seed %d", seed), res.Trace})
	}
	b := sim.NewTraceBuilder(2)
	b.SetFaulty(1)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, "x")
	b.MsgAt(1, 1, 0, 40, "fromFaulty")
	cases = append(cases, tc{"faulty sender", b.MustBuild()})

	for _, c := range cases {
		for _, bound := range []int{1, 3, 10, 1000} {
			got, want := Check(c.tr, bound, bound), checkQuadratic(c.tr, bound, bound)
			if got != want {
				t.Errorf("%s, Φ=Δ=%d: Check = %+v, reference %+v", c.name, bound, got, want)
			}
		}
	}
}
