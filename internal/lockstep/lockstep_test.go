package lockstep

import (
	"fmt"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/rat"
	"repro/internal/sim"
)

// counterApp broadcasts its round number and records everything it saw.
type counterApp struct {
	self sim.ProcessID
	seen [][]any
}

func (c *counterApp) Init(self sim.ProcessID, n int) any {
	c.self = self
	return fmt.Sprintf("r0 from %d", self)
}

func (c *counterApp) Round(r int, received []any) any {
	cp := make([]any, len(received))
	copy(cp, received)
	c.seen = append(c.seen, cp)
	return fmt.Sprintf("r%d from %d", r, c.self)
}

func runLockstep(t *testing.T, n, f, rounds int, faults map[sim.ProcessID]sim.Fault, seed int64) *sim.Result {
	t.Helper()
	m := core.MustModel(rat.FromInt(2))
	res, err := sim.Run(sim.Config{
		N:         n,
		Spawn:     Spawner(m, n, f, func(sim.ProcessID) App { return &counterApp{} }),
		Faults:    faults,
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      seed,
		Until:     AllReachedRound(rounds, faults),
		MaxEvents: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("truncated before reaching target round")
	}
	return res
}

func TestLockStepFaultFree(t *testing.T) {
	res := runLockstep(t, 4, 1, 6, nil, 1)
	if err := CheckLockStep(res.Procs, nil); err != nil {
		t.Fatal(err)
	}
	// Every process's round r view contains all four round r-1 messages.
	for id, pr := range res.Procs {
		ls := pr.(*Proc)
		for _, rec := range ls.Records() {
			for q, payload := range rec.Received {
				want := fmt.Sprintf("r%d from %d", rec.R-1, q)
				if payload != want {
					t.Fatalf("p%d round %d: received[%d] = %v, want %q", id, rec.R, q, payload, want)
				}
			}
		}
	}
}

func TestLockStepAdmissible(t *testing.T) {
	m := core.MustModel(rat.FromInt(2))
	res := runLockstep(t, 4, 1, 4, nil, 2)
	g := causality.Build(res.Trace, causality.Options{})
	v, err := check.ABC(g, m.Xi())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatalf("lock-step execution not admissible: %v", v.Witness)
	}
}

func TestLockStepWithCrash(t *testing.T) {
	faults := map[sim.ProcessID]sim.Fault{3: sim.Crash(8)}
	res := runLockstep(t, 4, 1, 5, faults, 3)
	if err := CheckLockStep(res.Procs, faults); err != nil {
		t.Fatal(err)
	}
	// Uniform lock-step (paper's remark after Theorem 5): the crashed
	// process also obeyed rounds until it stopped.
	if err := CheckUniformLockStep(res.Procs, faults); err != nil {
		t.Fatalf("uniform lock-step: %v", err)
	}
}

func TestLockStepWithByzantine(t *testing.T) {
	for _, tc := range []struct {
		n, f int
		seed int64
	}{{4, 1, 4}, {7, 2, 5}} {
		faults := clocksync.Adversaries(tc.n, tc.f, uint64(tc.seed))
		res := runLockstep(t, tc.n, tc.f, 5, faults, tc.seed)
		if err := CheckLockStep(res.Procs, faults); err != nil {
			t.Fatalf("n=%d f=%d: %v", tc.n, tc.f, err)
		}
	}
}

func TestRoundsProgressTogether(t *testing.T) {
	// Theorem 5 corollary: at every instant, round numbers of correct
	// processes differ by at most 1... they proceed in lock-step, so a
	// process can be at most one start() ahead of the slowest. Verify via
	// per-event round observation (notes carry clocks; rounds = clock/X).
	m := core.MustModel(rat.FromInt(2))
	x := m.PhasesPerRound()
	res := runLockstep(t, 4, 1, 6, nil, 6)
	cur := make([]int, 4)
	for _, ev := range res.Trace.Events {
		if n, ok := ev.Note.(clocksync.Note); ok {
			cur[ev.Proc] = n.Clock / int(x)
			min, max := cur[0], cur[0]
			for _, r := range cur {
				if r < min {
					min = r
				}
				if r > max {
					max = r
				}
			}
			if max-min > 1 {
				t.Fatalf("round spread %d at event %v (rounds %v)", max-min, ev, cur)
			}
		}
	}
}

func TestCheckLockStepDetectsViolation(t *testing.T) {
	// Fabricate a Proc with a hole in its records and verify the monitor
	// reports it.
	m := core.MustModel(rat.FromInt(2))
	p := New(m, 3, 0, &counterApp{})
	p.records = []RoundRecord{{R: 1, Received: []any{"a", nil, "c"}}}
	err := CheckLockStep([]sim.Process{p}, nil)
	if err == nil {
		t.Fatal("monitor accepted missing round message")
	}
}
