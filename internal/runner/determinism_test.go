package runner

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rat"
	"repro/internal/sim"
)

// pointerPayload mimics workloads like lockstep whose messages carry
// pointers: the %v rendering of such payloads would expose heap addresses
// (allocation accidents) if trace serialization did not mask them, so the
// golden grid must include this payload class (it once hid a hash
// instability that int/string payloads cannot reveal).
type pointerPayload struct {
	Step int
	Data *[3]int
}

// goldenJobs is the golden fleet: a grid over seeds, system sizes, delay
// policies, fault sets, and topologies, deliberately covering every
// randomized delay policy (the only RNG consumers), crash, silent, and
// scripted-Byzantine faults, and both plain and pointer-carrying payloads.
func goldenJobs(t testing.TB) []Job {
	spawn := func(steps int) func(sim.ProcessID) sim.Process {
		return func(sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		}
	}
	spawnPtr := func(steps int) func(sim.ProcessID) sim.Process {
		return func(sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < steps {
					env.Broadcast(pointerPayload{Step: env.StepIndex(), Data: &[3]int{1, 2, env.StepIndex()}})
				}
			})
		}
	}
	// legalTarget picks a topology-legal scripted-send recipient for the
	// Byzantine process: its first out-neighbor, or itself when isolated
	// (self-sends are always legal).
	legalTarget := func(topo *sim.Links, from sim.ProcessID) sim.ProcessID {
		if topo == nil {
			return 0
		}
		for _, to := range topo.Out(from) {
			if to != from {
				return to
			}
		}
		return from
	}
	golden := func(topology, fault, delay string, n int, seed int64) Job {
		cfg := sim.Config{
			N:         n,
			Spawn:     spawn(5),
			Seed:      seed,
			MaxEvents: 50000,
		}
		switch delay {
		case "uniform":
			cfg.Delays = sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)}
		case "growing":
			cfg.Delays = sim.GrowingDelay{Base: rat.One, Rate: rat.New(1, 20), Spread: rat.New(6, 5)}
		case "perlink":
			cfg.Delays = sim.PerLinkDelay{
				Default: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
				Links: map[sim.Link]sim.DelayPolicy{
					{From: 0, To: 1}: sim.ConstantDelay{D: rat.New(1, 2)},
				},
			}
		case "override":
			cfg.Delays = sim.OverrideDelay{
				Base: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Match: func(m sim.Message) bool {
					v, ok := m.Payload.(int)
					return ok && v == 1
				},
				Override: sim.UniformDelay{Min: rat.FromInt(3), Max: rat.FromInt(5)},
			}
		}
		topo, err := sim.ParseTopology(topology, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = topo
		if fault == "mixed" {
			cfg.Faults = map[sim.ProcessID]sim.Fault{
				0: sim.Crash(3),
				1: {CrashAfter: sim.NeverCrash, Script: []sim.ScriptedSend{
					{At: rat.FromInt(2), To: legalTarget(cfg.Topology, 1), Payload: "forged"},
				}},
			}
		}
		return Job{
			Key: fmt.Sprintf("golden/topology=%s/fault=%s/delay=%s/n=%d/seed=%d", topology, fault, delay, n, seed),
			Cfg: &cfg,
		}
	}
	// Row-major, the first axis outermost and seeds innermost. All
	// topologies but "full" are CSR generators parsed by
	// sim.ParseTopology, including a disconnected one (islands/2).
	var jobs []Job
	for _, topology := range []string{"full", "ring", "torus", "regular/1", "scalefree/1", "islands/2"} {
		for _, fault := range []string{"none", "mixed"} {
			for _, delay := range []string{"uniform", "growing", "perlink", "override"} {
				for _, n := range []int{2, 5} {
					for _, seed := range Seeds(0, 4) {
						jobs = append(jobs, golden(topology, fault, delay, n, seed))
					}
				}
			}
		}
	}
	for _, seed := range Seeds(0, 4) {
		jobs = append(jobs, Job{
			Key: fmt.Sprintf("golden/ptr-payload/seed=%d", seed),
			Cfg: &sim.Config{
				N: 4, Spawn: spawnPtr(5),
				Delays: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Seed:   seed, MaxEvents: 50000,
			},
		})
	}
	return jobs
}

// TestFleetGoldenTraceDeterminism is the bit-identity contract of the
// fleet: for every job in the golden grid, the trace produced by the
// parallel runner hashes identically to a serial sim.Run of the same
// Config, for every worker count in {1, 2, 8}. The test body is
// order-independent, so it holds under go test -shuffle=on (which CI
// runs).
func TestFleetGoldenTraceDeterminism(t *testing.T) {
	jobs := goldenJobs(t)
	// 4 seeds × 2 N × 4 delays × 2 fault sets × 6 topologies, plus 4
	// pointer-payload jobs.
	if len(jobs) != 388 {
		t.Fatalf("golden fleet has %d jobs, want 388", len(jobs))
	}

	// Golden hashes from the strictly serial path.
	golden := make([]uint64, len(jobs))
	for i, job := range jobs {
		res, err := sim.Run(*job.Cfg)
		if err != nil {
			t.Fatalf("serial %s: %v", job.Key, err)
		}
		golden[i] = res.Trace.Hash()
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			results, stats, err := Run(context.Background(), jobs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Errored != 0 {
				t.Fatalf("%d jobs errored", stats.Errored)
			}
			for i, r := range results {
				if got := r.Trace.Hash(); got != golden[i] {
					t.Errorf("%s: fleet trace %x != serial trace %x", r.Key, got, golden[i])
				}
			}
		})
	}
}

// TestFleetRunsAreRepeatable re-runs the same batch at the same width and
// asserts hash-identical results — no hidden per-run state in the fleet.
func TestFleetRunsAreRepeatable(t *testing.T) {
	jobs := goldenJobs(t)
	first, _, err := Run(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Run(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if first[i].Trace.Hash() != second[i].Trace.Hash() {
			t.Errorf("%s: repeated fleet run produced a different trace", jobs[i].Key)
		}
	}
}
