package abc

// The benchmark harness regenerates the paper's entire evaluation: one
// benchmark per figure/theorem experiment of E1–E18 (mirrored in
// EXPERIMENTS.md and cmd/abcbench) except E17, whose streaming checker
// BenchmarkIncrementalChecker times, plus performance benchmarks for the
// substrate: checker scaling, exact critical-ratio search, simulator
// throughput, and clock synchronization across system sizes. Run with
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchExperiment runs one paper experiment per iteration and fails the
// benchmark if any claim stops reproducing.
func benchExperiment(b *testing.B, exp func() (experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := exp()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if !r.OK {
				b.Fatalf("%s/%s: paper %q, measured %q", res.ID, r.Name, r.Paper, r.Measured)
			}
		}
	}
}

func BenchmarkE01_Fig1RelevantCycle(b *testing.B)   { benchExperiment(b, experiments.E01Fig1) }
func BenchmarkE02_Fig2CycleAddition(b *testing.B)   { benchExperiment(b, experiments.E02Fig2) }
func BenchmarkE03_Fig3Timeout(b *testing.B)         { benchExperiment(b, experiments.E03Fig3) }
func BenchmarkE04_Fig4NonRelevant(b *testing.B)     { benchExperiment(b, experiments.E04Fig4) }
func BenchmarkE05_Fig5CausalCone(b *testing.B)      { benchExperiment(b, experiments.E05Fig5) }
func BenchmarkE06_Fig67LinearSystem(b *testing.B)   { benchExperiment(b, experiments.E06Fig67) }
func BenchmarkE07_Fig8ParSyncGame(b *testing.B)     { benchExperiment(b, experiments.E07Fig8) }
func BenchmarkE08_Fig9MultiHop(b *testing.B)        { benchExperiment(b, experiments.E08Fig9) }
func BenchmarkE09_Fig10FIFO(b *testing.B)           { benchExperiment(b, experiments.E09Fig10) }
func BenchmarkE10_ClockSync(b *testing.B)           { benchExperiment(b, experiments.E10ClockSync) }
func BenchmarkE11_LockStep(b *testing.B)            { benchExperiment(b, experiments.E11LockStep) }
func BenchmarkE12_ModelIndist(b *testing.B)         { benchExperiment(b, experiments.E12ModelIndist) }
func BenchmarkE13_Variants(b *testing.B)            { benchExperiment(b, experiments.E13Variants) }
func BenchmarkE14_Consensus(b *testing.B)           { benchExperiment(b, experiments.E14Consensus) }
func BenchmarkE15_VLSIClockGeneration(b *testing.B) { benchExperiment(b, experiments.RunVLSI) }

// BenchmarkFleetExperiments runs the complete E1–E18 evaluation through
// the fleet runner at one worker and at eight. Per-seed traces and
// experiment Rows are bit-identical across widths
// (TestRunAllWidthIndependent); the only difference is wall-clock, which
// can only shrink with more than one hardware thread. DESIGN.md decision 5
// records measured rows:
//
//	go test -bench=BenchmarkFleetExperiments -benchtime=3x .
func BenchmarkFleetExperiments(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			experiments.SetWorkers(workers)
			defer experiments.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunAll(context.Background(), workers)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					for _, r := range res.Rows {
						if !r.OK {
							b.Fatalf("%s/%s failed", res.ID, r.Name)
						}
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate performance benchmarks.

// benchSpawner is the broadcast traffic generator of the substrate
// benchmarks: one ProcessFunc shared by every process (a closure per
// process is itself a measurable allocation at sparse scale).
func benchSpawner(steps int) func(sim.ProcessID) sim.Process {
	proc := sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
		if env.StepIndex() < steps {
			env.Broadcast(env.StepIndex())
		}
	})
	return func(sim.ProcessID) sim.Process { return proc }
}

// benchGraph produces a reproducible execution graph with roughly the
// requested number of events.
func benchGraph(b *testing.B, n, steps int) *causality.Graph {
	b.Helper()
	return causality.Build(benchTrace(b, n, steps, rat.New(3, 2)), causality.Options{})
}

// BenchmarkChecker measures the Bellman–Ford admissibility check across
// graph sizes (the paper's Definition 4 made O(V·E)). The admissible rows
// check at Ξ = 2. Their delays in [1, 3/2] leave no relevant cycle with
// ratio above 1, so the inadmissible row reruns the largest shape with
// delays in [1, 10] and checks it at Ξ halfway between 1 and its critical
// ratio, timing the violated path: negative-cycle detection and witness
// mapping.
func BenchmarkChecker(b *testing.B) {
	bench := func(name string, g *causality.Graph, xi rat.Rat, admissible bool) {
		b.Run(fmt.Sprintf("%snodes=%d/edges=%d", name, g.NumNodes(), g.NumEdges()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := check.ABC(g, xi)
				if err != nil {
					b.Fatal(err)
				}
				if v.Admissible != admissible {
					b.Fatalf("Ξ=%v: admissible=%v, want %v", xi, v.Admissible, admissible)
				}
			}
		})
	}
	for _, size := range []struct{ n, steps int }{{4, 10}, {6, 20}, {8, 40}} {
		bench("", benchGraph(b, size.n, size.steps), rat.FromInt(2), true)
	}
	g := causality.Build(benchTrace(b, 8, 40, rat.FromInt(10)), causality.Options{})
	crit, found, err := check.MaxRelevantRatio(g)
	if err != nil || !found {
		b.Fatalf("critical ratio: found=%v err=%v", found, err)
	}
	bench("inadmissible/", g, rat.New(crit.Num()+crit.Den(), 2*crit.Den()), false)
}

// BenchmarkMaxRelevantRatio measures the exact witness-jump critical-ratio
// search on BenchmarkChecker's inadmissible graph: its delays in [1, 10]
// give a critical ratio well above 1, so the search jumps through several
// violated probes instead of stopping at the first.
func BenchmarkMaxRelevantRatio(b *testing.B) {
	g := causality.Build(benchTrace(b, 8, 40, rat.FromInt(10)), causality.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := check.MaxRelevantRatio(g); err != nil || !found {
			b.Fatalf("critical ratio: found=%v err=%v", found, err)
		}
	}
}

// BenchmarkCutSynchrony measures the Theorem 2 consistent-cut check on
// E10's largest graph: Algorithm 1 at n=10, f=3 Byzantine, clocks to 12
// (2648 nodes), the check on the evaluation's critical path.
func BenchmarkCutSynchrony(b *testing.B) {
	src, ok := workload.Lookup("clocksync")
	if !ok {
		b.Fatal("clocksync workload not registered")
	}
	v, err := src.Resolve(map[string]string{"n": "10", "f": "3", "xi": "2", "target": "12",
		"faults": "byz/3", "faultseed": "42", "maxevents": "200000"})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := src.Jobs(v, []int64{10}, workload.JobOptions{NoVerdict: true})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(*jobs[0].Cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := causality.Build(res.Trace, causality.Options{})
	bound := core.MustModel(rat.FromInt(2)).PrecisionBound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := clocksync.CheckConsistentCutSynchrony(g, bound); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumNodes()), "nodes")
}

// BenchmarkBoundedProgress measures the Theorem 4 check on the clocksync
// source's default system (n=4, f=1) run to clock 1000, about 16,000
// nodes. One forward pass computes every cone's frontier row, so the
// cost stays linear in the run length, where a left closure per checked
// interval grows quadratically (130 ms/op here against ~1 ms/op).
func BenchmarkBoundedProgress(b *testing.B) {
	src, ok := workload.Lookup("clocksync")
	if !ok {
		b.Fatal("clocksync workload not registered")
	}
	v, err := src.Resolve(map[string]string{"target": "1000", "maxevents": "1000000"})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := src.Jobs(v, []int64{1}, workload.JobOptions{NoVerdict: true})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(*jobs[0].Cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := causality.Build(res.Trace, causality.Options{})
	rho := core.MustModel(rat.FromInt(2)).BoundedProgressRho()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := clocksync.CheckBoundedProgress(g, rho); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumNodes()), "nodes")
}

// benchTrace produces the reproducible broadcast trace behind the
// append-batch benchmarks.
func benchTrace(b *testing.B, n, steps int, maxDelay rat.Rat) *sim.Trace {
	b.Helper()
	res, err := sim.Run(sim.Config{
		N:         n,
		Spawn:     benchSpawner(steps),
		Delays:    sim.UniformDelay{Min: rat.One, Max: maxDelay},
		Seed:      1,
		MaxEvents: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Trace
}

// BenchmarkIncrementalChecker is the append-batch workload of the
// incremental engine (DESIGN.md decision 6): a growing execution whose
// admissibility is re-decided after every chunk of new events —
// online-monitoring cadence — through check.Incremental versus batch
// recheck-from-scratch (rebuild the prefix trace and graph, re-run
// Bellman–Ford). The delay spread keeps the run admissible at Ξ = 2
// throughout, so both sides pay for the full trace — the worst case for
// the incremental engine, which can never latch early.
func BenchmarkIncrementalChecker(b *testing.B) {
	tr := benchTrace(b, 6, 30, rat.New(9, 8))
	xi := rat.FromInt(2)
	const chunk = 32
	checkpoints := (len(tr.Events) + chunk - 1) / chunk
	b.Logf("trace: %d events, %d checkpoints", len(tr.Events), checkpoints)

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shell := &sim.Trace{N: tr.N, Msgs: tr.Msgs, Faulty: tr.Faulty}
			inc, err := check.NewIncremental(shell, xi, causality.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for j := chunk; ; j += chunk {
				if j > len(tr.Events) {
					j = len(tr.Events)
				}
				shell.Events = tr.Events[:j]
				v, err := inc.Step()
				if err != nil {
					b.Fatal(err)
				}
				if !v.Admissible {
					b.Fatal("benchmark workload must stay admissible")
				}
				if j == len(tr.Events) {
					break
				}
			}
		}
		b.ReportMetric(float64(checkpoints), "checks/op")
	})
	// dense appends a 64-process full-mesh broadcast one event at a time,
	// the watcher's cadence: deep causal chains, where a potential that
	// drags repairs back through history shows as repairs and finalized
	// nodes per op.
	b.Run("dense", func(b *testing.B) {
		benchEachEvent(b, benchTrace(b, 64, 5, rat.New(3, 2)), xi)
	})
	// ring appends a 5000-process ring one event at a time: the sparse,
	// shallow graph of a watched large system, where B/op is mostly the
	// graph's and checker's bytes per node.
	b.Run("ring", func(b *testing.B) {
		res, err := sim.Run(sim.Config{
			N:         5000,
			Topology:  sim.Ring(5000),
			Spawn:     benchSpawner(5),
			Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Seed:      1,
			MaxEvents: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchEachEvent(b, res.Trace, xi)
	})
	// repair replays a trace whose message upper bounds bind, so arc
	// insertion runs the Dijkstra repair and its adjacency scan.
	b.Run("repair", func(b *testing.B) {
		benchEachEvent(b, relayRingTrace(b, 16, 1000), rat.New(7, 2))
	})
	b.Run("batch", func(b *testing.B) {
		events := make([]sim.Event, 0, len(tr.Events))
		for i := 0; i < b.N; i++ {
			for j := chunk; ; j += chunk {
				if j > len(tr.Events) {
					j = len(tr.Events)
				}
				events = append(events[:0], tr.Events[:j]...)
				sub, err := sim.Reassemble(tr.N, events, tr.Msgs, tr.Faulty)
				if err != nil {
					b.Fatal(err)
				}
				v, err := check.ABC(causality.Build(sub, causality.Options{}), xi)
				if err != nil {
					b.Fatal(err)
				}
				if !v.Admissible {
					b.Fatal("benchmark workload must stay admissible")
				}
				if j == len(tr.Events) {
					break
				}
			}
		}
		b.ReportMetric(float64(checkpoints), "checks/op")
	})
}

// benchEachEvent checks tr at Ξ = xi through check.Incremental one event
// at a time and reports the constraint work per replay.
func benchEachEvent(b *testing.B, tr *sim.Trace, xi rat.Rat) {
	var st check.RepairStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shell := &sim.Trace{N: tr.N, Msgs: tr.Msgs, Faulty: tr.Faulty}
		inc, err := check.NewIncremental(shell, xi, causality.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= len(tr.Events); j++ {
			shell.Events = tr.Events[:j]
			v, err := inc.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !v.Admissible {
				b.Fatal("benchmark workload must stay admissible")
			}
		}
		st = inc.Stats()
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
	b.ReportMetric(float64(st.Repairs), "repairs/op")
	b.ReportMetric(float64(st.Finalized), "finalized/op")
}

// relayDelay delays messages between processes 0 and 1 by one time unit
// and every other message by slow.
type relayDelay struct{ slow sim.Time }

func (d relayDelay) Delay(m sim.Message, _ *rand.Rand) sim.Time {
	if m.From <= 1 && m.To <= 1 {
		return rat.One
	}
	return d.slow
}

// relayRingTrace runs processes 0 and 1 ping-ponging with delay 1 for
// rounds steps of process 0, which also starts a lap of a ring of relays
// (2 → 3 → … → 0) with delay 3 every round. Each lap closes relevant
// cycles of ratio 3, so the run is admissible at Ξ = 7/2; yet a lap's
// last hop arrives more than Ξ ping-pong rounds after the relays' earliest
// schedule, so its upper bound binds and inserting it pushes the potential
// back along the lap.
func relayRingTrace(b *testing.B, relays, rounds int) *sim.Trace {
	b.Helper()
	proc := sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
		switch self := env.Self(); {
		case msg.IsWakeup():
			if self == 0 {
				env.Send(1, nil)
			}
		case self == 0:
			if msg.From == 1 && env.StepIndex() < rounds {
				env.Send(1, nil)
				env.Send(2, nil)
			}
		case self == 1:
			env.Send(0, nil)
		default:
			env.Send((self+1)%sim.ProcessID(env.N()), nil)
		}
	})
	res, err := sim.Run(sim.Config{
		N:         2 + relays,
		Spawn:     func(sim.ProcessID) sim.Process { return proc },
		Delays:    relayDelay{slow: rat.FromInt(3)},
		Seed:      1,
		MaxEvents: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Trace
}

// BenchmarkExhaustiveVsBF is the ablation for DESIGN.md decision #1:
// enumerating cycles (Definition 4 verbatim) against the
// difference-constraint checker on the same small graph.
func BenchmarkExhaustiveVsBF(b *testing.B) {
	g := scenario.BuildFig3().Graph
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := check.Exhaustive(g, rat.FromInt(2), 100000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bellmanford", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := check.ABC(g, rat.FromInt(2)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCycleEnumeration measures raw cycle enumeration.
func BenchmarkCycleEnumeration(b *testing.B) {
	g := benchGraph(b, 4, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles.Enumerate(g, 1<<20)
	}
}

// BenchmarkSimulator measures event throughput of the discrete-event core
// across topologies, system sizes, and trace-retention modes. The sparse
// full-retention cases are the PR 6 acceptance target: events/sec at
// N=100k on a ring/torus must stay within 10x of the N=100 fully-connected
// case (per-event cost is what the CSR broadcast fast path and the
// calendar delivery queue control; total events differ by construction).
// The retain=none cases are the PR 8 scale target: with events and
// messages pooled and nothing retained, the n=1000000 ring must clear the
// PR 6 n=100000 full-retention throughput (≥ ~414k events/sec) — ten
// times the system size at no less speed. The million case keeps the bare
// "topo=ring/n=1000000" name (its retention mode is forced — a retained
// 10^7-event trace is the memory wall the mode exists to remove); the
// bounded variant at 100k carries the explicit /retain=none suffix next
// to its full-retention twin. The n=10000 ring doubles as the CI fan-out
// smoke. Every row but one primes its engine before timing; the /cold
// row builds a fresh engine per iteration, the path every abcsim run
// takes, so its B/op gates the allocation of a cold run's working set.
func BenchmarkSimulator(b *testing.B) {
	cases := []struct {
		topo     string
		n, steps int
		sink     func() sim.Sink // nil = full retention
		tag      string
	}{
		{"full", 8, 50, nil, ""}, // the historical shape, for trajectory continuity
		{"full", 100, 5, nil, ""},
		{"ring", 10000, 3, nil, ""},
		{"ring", 10000, 3, sim.RetainNone, "/cold"},
		{"ring", 100000, 3, nil, ""},
		{"torus", 100000, 3, nil, ""},
		{"ring", 100000, 3, sim.RetainNone, "/retain=none"},
		{"ring", 1000000, 3, sim.RetainNone, ""},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("topo=%s/n=%d%s", tc.topo, tc.n, tc.tag), func(b *testing.B) {
			topo, err := sim.ParseTopology(tc.topo, tc.n, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Config{
				N:         tc.n,
				Spawn:     benchSpawner(tc.steps),
				Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Topology:  topo,
				Seed:      1,
				MaxEvents: 1 << 24,
			}
			if tc.sink != nil {
				cfg.Sink = tc.sink()
			}
			engine := sim.NewEngine()
			// One run to count events for the metrics (and to prime the
			// engine's pooled storage and high-water marks).
			warm, err := engine.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if warm.Truncated {
				b.Fatal("benchmark run truncated; raise MaxEvents")
			}
			events := warm.Trace.TotalEvents()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.tag == "/cold" {
					engine = sim.NewEngine()
				}
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events/run")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkClockSyncScale measures Algorithm 1 runs across system sizes
// and run lengths (message complexity grows with n²·ticks; see
// EXPERIMENTS.md). A process keeps sender sets only for ticks at or above
// its clock, so ns/event stays flat from target=10 to target=1000; a
// per-step rescan of every tick ever received made it grow with the
// target.
func BenchmarkClockSyncScale(b *testing.B) {
	for _, target := range []int{10, 1000} {
		for _, n := range []int{4, 7, 10, 13} {
			f := (n - 1) / 3
			b.Run(fmt.Sprintf("target=%d/n=%d/f=%d", target, n, f), func(b *testing.B) {
				events := 0
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(sim.Config{
						N:         n,
						Spawn:     clocksync.Spawner(n, f),
						Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
						Seed:      int64(i),
						Until:     clocksync.AllReached(target, nil),
						MaxEvents: 500000,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Truncated {
						b.Fatal("truncated")
					}
					events += res.Trace.TotalEvents()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}

// BenchmarkGraphBuild measures execution-graph construction. Build sizes
// every array from a counting pass, so allocs/op is a constant.
func BenchmarkGraphBuild(b *testing.B) {
	res, err := sim.Run(sim.Config{
		N: 6,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 30 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      1,
		MaxEvents: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		causality.Build(res.Trace, causality.Options{})
	}
}

// BenchmarkE16_RelatedModels regenerates the Section 5.2 MCM/MMR
// comparison.
func BenchmarkE16_RelatedModels(b *testing.B) { benchExperiment(b, experiments.RunRelated) }

// BenchmarkE18_CrossWorkload regenerates the registry-wide workload
// matrix: every registered source × {admissible, perturbed-inadmissible}
// through the streaming watcher, pinned against the batch checker.
func BenchmarkE18_CrossWorkload(b *testing.B) { benchExperiment(b, experiments.RunCrossWorkload) }
