package check

import (
	"fmt"
	"testing"

	"repro/internal/causality"
	"repro/internal/cycles"
	"repro/internal/rat"
	"repro/internal/sim"
)

// prefixTrace materializes the first j events of tr as a standalone,
// validated trace — what a batch user re-checking a grown execution from
// scratch would construct.
func prefixTrace(t testing.TB, tr *sim.Trace, j int) *sim.Trace {
	t.Helper()
	events := make([]sim.Event, j)
	copy(events, tr.Events[:j])
	sub, err := sim.Reassemble(tr.N, events, tr.Msgs, tr.Faulty)
	if err != nil {
		t.Fatalf("prefix %d: %v", j, err)
	}
	return sub
}

// shellFor returns a trace view sharing tr's messages and fault vector
// whose Events slice the caller truncates to feed an Incremental step by
// step, replaying the growth of a finished trace.
func shellFor(tr *sim.Trace) *sim.Trace {
	return &sim.Trace{N: tr.N, Msgs: tr.Msgs, Faulty: tr.Faulty}
}

// checkAgreement compares the incremental verdict against a batch
// recheck-from-scratch of the same prefix and validates both certificates.
func checkAgreement(t *testing.T, ctx string, tr *sim.Trace, j int, inc *Incremental, v Verdict, xi rat.Rat) {
	t.Helper()
	sub := prefixTrace(t, tr, j)
	bg := causality.Build(sub, causality.Options{})
	bv, err := ABC(bg, xi)
	if err != nil {
		t.Fatalf("%s: batch ABC: %v", ctx, err)
	}
	if bv.Admissible != v.Admissible {
		t.Fatalf("%s: incremental admissible=%v, batch=%v", ctx, v.Admissible, bv.Admissible)
	}
	if v.Admissible {
		cert, err := inc.Certify()
		if err != nil {
			t.Fatalf("%s: Certify: %v", ctx, err)
		}
		if err := cert.Assignment.Validate(xi); err != nil {
			t.Fatalf("%s: incremental assignment invalid: %v", ctx, err)
		}
		return
	}
	// Both witnesses must be relevant cycles at or above Ξ; they need not
	// be the same cycle.
	for _, w := range []struct {
		name string
		v    Verdict
	}{{"incremental", v}, {"batch", bv}} {
		if w.v.Witness == nil {
			t.Fatalf("%s: %s verdict has no witness", ctx, w.name)
		}
		cl := cycles.Classify(*w.v.Witness)
		if !cl.Relevant {
			t.Fatalf("%s: %s witness not relevant: %v", ctx, w.name, *w.v.Witness)
		}
		if cl.Ratio().Less(xi) {
			t.Fatalf("%s: %s witness ratio %v below Ξ=%v", ctx, w.name, cl.Ratio(), xi)
		}
	}
	if fa := inc.FailedAt(); fa < 0 || fa >= j {
		t.Fatalf("%s: FailedAt = %d outside prefix [0,%d)", ctx, fa, j)
	}
}

// TestIncrementalDifferential replays randomized executions through the
// incremental engine under many append schedules and cross-checks every
// checkpoint against the batch checker: same verdict, valid certificates
// on both sides (witness relevance and ratio, assignment strictness).
// The grid spans seed × topology × delay policy × Ξ × append chunk and
// exceeds 10k schedules in full mode (CI runs it under -race; -short
// trims the seed axis).
func TestIncrementalDifferential(t *testing.T) {
	type topo struct {
		name string
		fn   func(n int) *sim.Links
	}
	// Each row lists p's out-neighbors, self-loop included.
	topos := []topo{
		{"full", func(int) *sim.Links { return nil }},
		{"ring", func(n int) *sim.Links {
			adj := make([][]sim.ProcessID, n)
			for p := range adj {
				adj[p] = []sim.ProcessID{sim.ProcessID(p), sim.ProcessID((p + 1) % n)}
			}
			return sim.NewLinks(n, adj)
		}},
		{"star", func(n int) *sim.Links {
			adj := make([][]sim.ProcessID, n)
			for p := range adj {
				adj[0] = append(adj[0], sim.ProcessID(p))
				if p != 0 {
					adj[p] = []sim.ProcessID{0, sim.ProcessID(p)}
				}
			}
			return sim.NewLinks(n, adj)
		}},
		{"pair", func(n int) *sim.Links {
			adj := make([][]sim.ProcessID, n)
			for p := range adj {
				for q := p &^ 1; q <= p|1 && q < n; q++ {
					adj[p] = append(adj[p], sim.ProcessID(q))
				}
			}
			return sim.NewLinks(n, adj)
		}},
	}
	delays := []struct {
		name   string
		policy sim.DelayPolicy
	}{
		{"tight", sim.UniformDelay{Min: rat.One, Max: rat.New(9, 8)}},
		{"wide", sim.UniformDelay{Min: rat.One, Max: rat.FromInt(3)}},
		{"zeroish", sim.UniformDelay{Min: rat.Zero, Max: rat.New(1, 2)}},
		{"constant", sim.ConstantDelay{D: rat.One}},
		{"growing", sim.GrowingDelay{Base: rat.One, Rate: rat.New(1, 4), Spread: rat.New(3, 2)}},
	}
	xis := []rat.Rat{rat.New(9, 8), rat.New(3, 2), rat.FromInt(2), rat.FromInt(3), rat.New(5, 4)}
	chunks := []int{1, 7}
	seeds := 50
	if testing.Short() {
		seeds = 5
	}

	engine := sim.NewEngine()
	schedules, violations := 0, 0
	var work RepairStats
	for _, tp := range topos {
		for _, dl := range delays {
			for xiIdx, xi := range xis {
				for _, chunk := range chunks {
					for seed := 0; seed < seeds; seed++ {
						n := 2 + (seed+xiIdx)%3
						res, err := engine.Run(sim.Config{
							N: n,
							Spawn: func(p sim.ProcessID) sim.Process {
								return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
									if env.StepIndex() < 4 {
										env.Broadcast(env.StepIndex())
									}
								})
							},
							Delays:    dl.policy,
							Topology:  tp.fn(n),
							Seed:      int64(seed)*7919 + int64(xiIdx),
							MaxEvents: 40,
						})
						if err != nil {
							t.Fatal(err)
						}
						tr := res.Trace
						schedules++

						shell := shellFor(tr)
						inc, err := NewIncremental(shell, xi, causality.Options{})
						if err != nil {
							t.Fatal(err)
						}
						for j := chunk; ; j += chunk {
							if j > len(tr.Events) {
								j = len(tr.Events)
							}
							shell.Events = tr.Events[:j]
							v, err := inc.Step()
							if err != nil {
								t.Fatal(err)
							}
							ctx := fmt.Sprintf("topo=%s delay=%s xi=%v chunk=%d seed=%d prefix=%d",
								tp.name, dl.name, xi, chunk, seed, j)
							checkAgreement(t, ctx, tr, j, inc, v, xi)
							if !v.Admissible {
								violations++
								// The engine latches; the monitor would have
								// aborted the run here.
								break
							}
							if j == len(tr.Events) {
								break
							}
						}
						st := inc.Stats()
						work.Repairs += st.Repairs
						work.Finalized += st.Finalized
					}
				}
			}
		}
	}
	t.Logf("%d schedules, %d ended inadmissible", schedules, violations)
	if min := 10000; !testing.Short() && schedules < min {
		t.Fatalf("grid produced %d schedules, want >= %d", schedules, min)
	}
	if violations == 0 || violations == schedules {
		t.Fatalf("degenerate grid: %d/%d violations — both verdict classes must be exercised", violations, schedules)
	}
	// Fresh nodes are seeded where their arcs hold, so repairs are rare on
	// simulator traces; the grid must still drive the repair path, and
	// through a repair that moves more than one node (more nodes finalized
	// than repairs run).
	t.Logf("%d repairs finalized %d nodes", work.Repairs, work.Finalized)
	if work.Repairs == 0 || work.Finalized <= work.Repairs {
		t.Fatalf("grid left the repair path cold: %d repairs finalized %d nodes", work.Repairs, work.Finalized)
	}
}

// TestIncrementalFailedAtIsMinimal pins FailedAt exactness: the reported
// position must be the minimal prefix whose batch check fails, found
// independently by bisection (inadmissibility is monotone under growth).
func TestIncrementalFailedAtIsMinimal(t *testing.T) {
	engine := sim.NewEngine()
	found := 0
	for seed := int64(0); seed < 30; seed++ {
		res, err := engine.Run(sim.Config{
			N: 3,
			Spawn: func(p sim.ProcessID) sim.Process {
				return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
					if env.StepIndex() < 5 {
						env.Broadcast(env.StepIndex())
					}
				})
			},
			Delays:    sim.UniformDelay{Min: rat.One, Max: rat.FromInt(3)},
			Seed:      seed,
			MaxEvents: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		xi := rat.New(3, 2)

		shell := shellFor(tr)
		inc, err := NewIncremental(shell, xi, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		shell.Events = tr.Events
		v, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		if v.Admissible {
			continue
		}
		found++

		admissibleAt := func(j int) bool {
			bg := causality.Build(prefixTrace(t, tr, j), causality.Options{})
			bv, err := ABC(bg, xi)
			if err != nil {
				t.Fatal(err)
			}
			return bv.Admissible
		}
		lo, hi := 0, len(tr.Events) // admissibleAt(lo), !admissibleAt(hi)
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if admissibleAt(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if want := hi - 1; inc.FailedAt() != want {
			t.Fatalf("seed %d: FailedAt = %d, bisection says first failing event is %d", seed, inc.FailedAt(), want)
		}
	}
	if found == 0 {
		t.Fatal("no inadmissible execution in the sweep; workload too tame")
	}
}

// TestWatcherAbortsRun wires the watcher into a live simulation and checks
// the run stops at the violation, with MonitorErr set and the partial
// trace ending exactly at the first failing event.
func TestWatcherAbortsRun(t *testing.T) {
	xi := rat.New(3, 2)
	cfg := sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 5 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.FromInt(3)},
		MaxEvents: 60,
	}
	aborted := 0
	for seed := int64(0); seed < 20; seed++ {
		cfg.Seed = seed
		w, err := NewWatcher(xi, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Monitor = w.Monitor
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MonitorErr == nil {
			if w.FirstViolation() != -1 || !w.Verdict().Admissible {
				t.Fatalf("seed %d: clean run but watcher reports violation", seed)
			}
			continue
		}
		aborted++
		if res.MonitorErr != ErrInadmissible {
			t.Fatalf("seed %d: MonitorErr = %v", seed, res.MonitorErr)
		}
		if got, want := w.FirstViolation(), len(res.Trace.Events)-1; got != want {
			t.Fatalf("seed %d: aborted at event %d but FirstViolation = %d", seed, want, got)
		}
		if w.Verdict().Admissible || w.Verdict().Witness == nil {
			t.Fatalf("seed %d: aborted run lacks witness verdict", seed)
		}
		// The full (unmonitored) run of the same seed must also be
		// inadmissible — aborting cannot invent violations.
		cfg2 := cfg
		cfg2.Monitor = nil
		full, err := sim.Run(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := ABC(causality.Build(full.Trace, causality.Options{}), xi)
		if err != nil {
			t.Fatal(err)
		}
		if bv.Admissible {
			t.Fatalf("seed %d: watcher aborted but full run is admissible", seed)
		}
	}
	if aborted == 0 {
		t.Fatal("no watcher abort in the sweep; workload too tame")
	}
}

// TestWatcherEmptyRun pins what a watcher reports when Monitor never ran
// (a run without events): an admissible verdict without certificates, no
// violation, no graph and no constraining ratio.
func TestWatcherEmptyRun(t *testing.T) {
	w, err := NewWatcher(rat.FromInt(2), causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := w.Verdict(); !v.Admissible || v.Witness != nil || v.Assignment != nil {
		t.Errorf("empty-run verdict = %+v, want Verdict{Admissible: true}", v)
	}
	if got := w.FirstViolation(); got != -1 {
		t.Errorf("FirstViolation = %d, want -1", got)
	}
	if w.Graph() != nil {
		t.Error("Graph is non-nil without a run")
	}
	if ratio, found, err := w.MaxRelevantRatio(); err != nil || found || ratio.Sign() != 0 {
		t.Errorf("MaxRelevantRatio = %v, %v, %v; want 0, false, nil", ratio, found, err)
	}
}

// TestWatcherReuseRejected pins the one-run-per-watcher contract.
func TestWatcherReuseRejected(t *testing.T) {
	w, err := NewWatcher(rat.FromInt(2), causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		N:       1,
		Spawn:   func(sim.ProcessID) sim.Process { return sim.ProcessFunc(func(*sim.Env, sim.Message) {}) },
		Delays:  sim.ConstantDelay{D: rat.One},
		Monitor: w.Monitor,
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorErr == nil {
		t.Fatal("second run with the same watcher not rejected")
	}
}

// TestIncrementalOnScenarios replays the paper's hand-built figures event
// by event: Fig. 3's violating cycle must flip the incremental verdict at
// the position of ψ's closing event, Fig. 4 must stay admissible.
func TestIncrementalOnScenarios(t *testing.T) {
	xi := rat.FromInt(2)
	t.Run("fig3", func(t *testing.T) {
		// Rebuild Fig. 3 via the scenario's trace (import cycle keeps the
		// scenario package out; replay its trace shape directly).
		b := sim.NewTraceBuilder(3)
		b.WakeAll(rat.Zero)
		b.MsgAt(0, 0, 1, 1, "ping1")
		b.MsgAt(0, 0, 2, 1, "query")
		b.MsgAt(1, 1, 0, 2, "pong1")
		b.MsgAt(0, 1, 1, 3, "ping2")
		b.MsgAt(1, 2, 0, 4, "pong2")
		b.MsgAt(2, 1, 0, 6, "reply")
		tr := b.MustBuild()

		shell := shellFor(tr)
		inc, err := NewIncremental(shell, xi, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= len(tr.Events); j++ {
			shell.Events = tr.Events[:j]
			v, err := inc.Step()
			if err != nil {
				t.Fatal(err)
			}
			if wantAdm := j < len(tr.Events); v.Admissible != wantAdm {
				t.Fatalf("prefix %d: admissible=%v, want %v", j, v.Admissible, wantAdm)
			}
		}
		if got, want := inc.FailedAt(), len(tr.Events)-1; got != want {
			t.Fatalf("FailedAt = %d, want %d (the reply's receive event)", got, want)
		}
		cl := cycles.Classify(*inc.Verdict().Witness)
		if !cl.Relevant || cl.Ratio().Less(xi) {
			t.Fatalf("witness classification %+v", cl)
		}
	})
	t.Run("fig4", func(t *testing.T) {
		b := sim.NewTraceBuilder(3)
		b.WakeAll(rat.Zero)
		b.MsgAt(0, 0, 1, 1, "ping1")
		b.MsgAt(0, 0, 2, 1, "query")
		b.MsgAt(1, 1, 0, 2, "pong1")
		b.MsgAt(0, 1, 1, 3, "ping2")
		b.Msg(2, 1, 0, rat.New(7, 2), "reply")
		b.MsgAt(1, 2, 0, 4, "pong2")
		tr := b.MustBuild()

		shell := shellFor(tr)
		inc, err := NewIncremental(shell, xi, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		shell.Events = tr.Events
		v, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admissible {
			t.Fatal("Fig. 4 (timely reply) must stay admissible")
		}
		cert, err := inc.Certify()
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.Assignment.Validate(xi); err != nil {
			t.Fatal(err)
		}
	})
}
