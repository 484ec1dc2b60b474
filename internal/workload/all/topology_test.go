// Sparse-topology conformance: the fleet==serial determinism contract must
// hold for every topology generator, not just the fully-connected default
// the main suite exercises. Each case resolves a registered source with a
// topology override and pins identical fingerprints across worker counts
// {1, 4} and across repeated runs, including a disconnected graph.
package all_test

import (
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

func sparseCases(t *testing.T) map[string][]string {
	t.Helper()
	return map[string][]string{
		"broadcast-ring":      {"broadcast", "topology=ring", "n=24", "target=4"},
		"broadcast-regular-a": {"broadcast", "topology=regular/2", "toposeed=7", "n=24", "target=4"},
		"broadcast-regular-b": {"broadcast", "topology=regular/2", "toposeed=8", "n=24", "target=4"},
		"broadcast-torus":     {"broadcast", "topology=torus", "n=16", "target=4"},
		"broadcast-scalefree": {"broadcast", "topology=scalefree/2", "n=24", "target=4"},
		// Disconnected: three islands, traffic never crosses a partition
		// (pinned at the sim layer); here the contract is that the fleet
		// handles the partitioned run deterministically and to quiescence.
		"broadcast-islands": {"broadcast", "topology=islands/3", "n=9", "target=4"},
		// The headline scenario: Algorithm 1 on a chip fabric that is a
		// torus instead of all-to-all. Progress is not guaranteed sparse
		// (the precision verdict gates itself off), so the event budget
		// keeps the case bounded either way.
		"vlsi-torus": {"vlsi", "topology=torus", "n=9", "maxevents=3000"},
		// Ω on sparse fabrics: the core runs on detector.CoreTopology's
		// clique overlay, and relays flood announcements hop by hop.
		"omega-ring":  {"omega", "topology=ring", "n=8"},
		"omega-torus": {"omega", "topology=torus", "n=9"},
	}
}

func sparseJobs(t *testing.T, spec []string, opt workload.JobOptions) []runner.Job {
	t.Helper()
	s := source(t, spec[0])
	overrides := make(map[string]string, len(spec)-1)
	for _, kv := range spec[1:] {
		k, val, _ := strings.Cut(kv, "=")
		overrides[k] = val
	}
	v, err := s.Resolve(overrides)
	if err != nil {
		t.Fatalf("%s: %v", spec[0], err)
	}
	jobs, err := s.Jobs(v, conformanceSeeds, opt)
	if err != nil {
		t.Fatalf("%s: %v", spec[0], err)
	}
	return jobs
}

func TestSparseTopologyFleetDeterminism(t *testing.T) {
	for name, spec := range sparseCases(t) {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			serial := run(t, sparseJobs(t, spec, workload.JobOptions{Ratio: true}), 1)
			for _, r := range serial {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
				if r.CheckErr != nil {
					t.Fatalf("%s: domain verdict: %v", r.Key, r.CheckErr)
				}
			}
			again := run(t, sparseJobs(t, spec, workload.JobOptions{Ratio: true}), 1)
			wide := run(t, sparseJobs(t, spec, workload.JobOptions{Ratio: true}), 4)
			for i := range serial {
				want := fingerprint(serial[i])
				if got := fingerprint(again[i]); got != want {
					t.Errorf("unstable across runs:\n 1st: %s\n 2nd: %s", want, got)
				}
				if got := fingerprint(wide[i]); got != want {
					t.Errorf("worker-count dependent:\n serial: %s\n fleet:  %s", want, got)
				}
			}
		})
	}
}

// TestSparseDisconnectedQuiesces pins the expected behavior on a
// disconnected graph: the run terminates on its own (no truncation) with
// every island having completed its local broadcast rounds.
func TestSparseDisconnectedQuiesces(t *testing.T) {
	jobs := sparseJobs(t, sparseCases(t)["broadcast-islands"], workload.JobOptions{})
	for _, r := range run(t, jobs, 2) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
		if r.Sim == nil || r.Sim.Truncated {
			t.Errorf("%s: disconnected run did not quiesce", r.Key)
		}
	}
}

// TestSparsePartitionMustCutALink pins the partition check on sparse
// fabrics at every size: halving a two-island system along its island
// boundary severs no link, so the run is rejected at setup — for Ω, whose
// topology is the base plus the core overlay, as for plain broadcast, and
// past N = 1024 as below it.
func TestSparsePartitionMustCutALink(t *testing.T) {
	for _, name := range []string{"broadcast", "omega"} {
		for _, n := range []string{"1000", "2000"} {
			s := source(t, name)
			v, err := s.Resolve(map[string]string{
				"n": n, "topology": "islands/2", "faults": "partition/halves@0..5",
			})
			if err != nil {
				t.Fatalf("%s n=%s: %v", name, n, err)
			}
			jobs, err := s.Jobs(v, []int64{1}, workload.JobOptions{})
			if err != nil {
				t.Fatalf("%s n=%s: %v", name, n, err)
			}
			_, err = sim.Run(*jobs[0].Cfg)
			if err == nil || !strings.Contains(err.Error(), "cuts no link") {
				t.Errorf("%s n=%s: err %v, want a cuts-no-link setup error", name, n, err)
			}
		}
	}
}
