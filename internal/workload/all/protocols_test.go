// Protocol-catalogue conformance: the consensus and Ω sources, and the
// shared fault axis (workload.FaultParams) across the registry, are held
// to the same fleet==serial contract as everything else — including the
// CheckErr *text* of failing domain verdicts, which is what flushed out
// the Spec.Check map-iteration nondeterminism this PR fixes.
package all_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/runner"
	"repro/internal/workload"
)

// faultCases are parameter points exercising the fault axis on every
// family that accepts it: crash-at-step grids, Byzantine budgets,
// scripted noise, the Ω core on sparse fabrics, and the crash-recovery
// and lossy-network families (recover schedules under both state and
// in-flight policies, drop/dup/spike rules, transient partitions). All
// must pass their domain verdicts.
func faultCases(t *testing.T) map[string][]string {
	t.Helper()
	return map[string][]string{
		"consensus-floodset-silent":  {"consensus", "algo=floodset", "faults=crash/1@0"},
		"consensus-floodset-late":    {"consensus", "algo=floodset", "faults=crash/1@2"},
		"consensus-eig-byz":          {"consensus", "algo=eig", "faults=byz/1"},
		"consensus-eig-byz-budget":   {"consensus", "algo=eig", "faults=byz/1@20"},
		"consensus-phaseking-byz":    {"consensus", "n=5", "algo=phaseking", "faults=byz/1"},
		"consensus-script":           {"consensus", "algo=eig", "faults=script/1@2"},
		"consensus-floodset-recover": {"consensus", "algo=floodset", "faults=recover/1@2..6"},
		"omega-silent-follower":      {"omega", "faults=crash/1@0"},
		"omega-silent-core":          {"omega", "n=3", "faults=crash/1@0"},
		"omega-ring":                 {"omega", "n=8", "topology=ring", "faults=crash/1@0"},
		"omega-torus":                {"omega", "n=9", "topology=torus"},
		"omega-recover-leader":       {"omega", "faults=recover/p0@4..12"},
		"clocksync-byz-axis":         {"clocksync", "faults=byz/1@30"},
		"clocksync-crash-axis":       {"clocksync", "faults=crash/1@4"},
		"clocksync-lossy":            {"clocksync", "faults=drop/0.1"},
		"lockstep-crash-axis":        {"lockstep", "faults=crash/1@2"},
		"vlsi-crash-axis":            {"vlsi", "faults=crash/1@0"},
		"broadcast-script-axis":      {"broadcast", "faults=script/2@1"},
		"broadcast-recover":          {"broadcast", "faults=recover/1@2..4"},
		"broadcast-recover-amnesia":  {"broadcast", "faults=recover/1@2..4", "recovery=amnesia", "inflight=hold"},
		"broadcast-drop":             {"broadcast", "faults=drop/0.3"},
		"broadcast-dup-spike":        {"broadcast", "faults=dup/0.25+spike/0.2@2"},
		"broadcast-partition":        {"broadcast", "faults=partition/halves@2..5"},
	}
}

func overrideJobs(t *testing.T, spec []string, opt workload.JobOptions) []runner.Job {
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

// TestProtocolFaultFleetDeterminism pins fleet==serial fingerprints —
// trace hash, verdict, ratio, and domain CheckErr text — for every fault
// case, across worker counts {1, 4} and repeated runs, and requires the
// domain verdicts to pass.
func TestProtocolFaultFleetDeterminism(t *testing.T) {
	for name, spec := range faultCases(t) {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			serial := run(t, overrideJobs(t, spec, workload.JobOptions{Ratio: true}), 1)
			for _, r := range serial {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
				if r.CheckErr != nil {
					t.Fatalf("%s: domain verdict: %v", r.Key, r.CheckErr)
				}
				if r.Sim != nil && r.Sim.Truncated {
					t.Fatalf("%s: truncated", r.Key)
				}
			}
			again := run(t, overrideJobs(t, spec, workload.JobOptions{Ratio: true}), 1)
			wide := run(t, overrideJobs(t, spec, workload.JobOptions{Ratio: true}), 4)
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

// TestProtocolVerdictAgreesWithCheck re-derives the ABC verdict of every
// fault-case job with the batch checker over an independently rebuilt
// graph — the fault axis must not perturb verdict agreement.
func TestProtocolVerdictAgreesWithCheck(t *testing.T) {
	for name, spec := range faultCases(t) {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			jobs := overrideJobs(t, spec, workload.JobOptions{})
			for i, r := range run(t, jobs, 2) {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
				if jobs[i].Xi.Sign() <= 0 || r.Verdict == nil {
					t.Fatalf("%s: fault case without an ABC verdict", r.Key)
				}
				batch, err := check.ABC(causality.Build(r.Trace, causality.Options{}), jobs[i].Xi)
				if err != nil {
					t.Fatalf("%s: batch re-check: %v", r.Key, err)
				}
				if batch.Admissible != r.Verdict.Admissible {
					t.Errorf("%s: fleet verdict %v, batch checker %v",
						r.Key, r.Verdict.Admissible, batch.Admissible)
				}
			}
		})
	}
}

// TestProtocolFailingVerdictDeterministic is the satellite-1 regression
// at registry level: a consensus run stopped one round short of EIG's
// requirement fails termination, and the CheckErr string must be
// byte-identical at workers {1, 4} and across repeats — before the
// Spec.Check rewrite, map iteration made the reported process random.
func TestProtocolFailingVerdictDeterministic(t *testing.T) {
	spec := []string{"consensus", "algo=eig", "rounds=1"}
	serial := run(t, overrideJobs(t, spec, workload.JobOptions{}), 1)
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
		if r.CheckErr == nil {
			t.Fatalf("%s: under-run consensus passed its verdict", r.Key)
		}
		if !strings.Contains(r.CheckErr.Error(), "did not decide") {
			t.Fatalf("%s: unexpected verdict error: %v", r.Key, r.CheckErr)
		}
	}
	again := run(t, overrideJobs(t, spec, workload.JobOptions{}), 1)
	wide := run(t, overrideJobs(t, spec, workload.JobOptions{}), 4)
	for i := range serial {
		want := serial[i].CheckErr.Error()
		for _, other := range []runner.JobResult{again[i], wide[i]} {
			if other.CheckErr == nil || other.CheckErr.Error() != want {
				t.Errorf("%s: CheckErr text not deterministic:\n want %q\n got  %v",
					serial[i].Key, want, other.CheckErr)
			}
		}
	}
}

// TestProtocolFaultGrids runs the two headline grid shapes from the
// issue — a crash-at-step sweep and a Byzantine-budget sweep — through
// Source.Grid, pinning that fault specs expand as ordinary sweep values
// and that every grid point completes with a passing verdict.
func TestProtocolFaultGrids(t *testing.T) {
	grids := []struct {
		name   string
		source string
		base   map[string]string
		axis   workload.Axis
	}{
		{"crash-sweep", "consensus", map[string]string{"algo": "floodset"},
			workload.Axis{Param: "faults", Values: []string{"none", "crash/1@0", "crash/1@2"}}},
		{"byz-budget", "clocksync", nil,
			workload.Axis{Param: "faults", Values: []string{"byz/1@20", "byz/1@40", "byz/1@60"}}},
	}
	for _, g := range grids {
		g := g
		t.Run(g.name, func(t *testing.T) {
			s := source(t, g.source)
			base, err := s.Resolve(g.base)
			if err != nil {
				t.Fatal(err)
			}
			jobs, _, err := s.Grid(base, []workload.Axis{g.axis}, conformanceSeeds, workload.JobOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(g.axis.Values) * len(conformanceSeeds); len(jobs) != want {
				t.Fatalf("grid expanded to %d jobs, want %d", len(jobs), want)
			}
			for _, r := range run(t, jobs, 2) {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
				if r.CheckErr != nil {
					t.Errorf("%s: domain verdict: %v", r.Key, r.CheckErr)
				}
			}
		})
	}
}

// TestFaultGrammarPinsLegacyExecutions pins the seed-1 stream hashes that
// the removed per-source fault switches produced (clocksync and lockstep
// adversaries=true with advseed=7 or the default job-seed derivation,
// vlsi silent=1). The faults= spelling of each must keep reproducing
// those executions bit for bit, with the domain verdict passing.
func TestFaultGrammarPinsLegacyExecutions(t *testing.T) {
	cases := []struct {
		legacy string
		spec   []string
		hash   string
	}{
		{"adversaries=true advseed=7", []string{"clocksync", "faults=byz/1", "faultseed=7"}, "56596d440f86cf27"},
		{"adversaries=true advseed=7", []string{"clocksync", "n=7", "f=2", "faults=byz/2", "faultseed=7"}, "406c3c4604bf54d5"},
		{"adversaries=true", []string{"clocksync", "faults=byz/1"}, "fa9e20a4fff77a52"},
		{"adversaries=true advseed=7", []string{"lockstep", "faults=byz/1", "faultseed=7"}, "1cc50353e00ec646"},
		{"adversaries=true advseed=7", []string{"lockstep", "n=7", "f=2", "faults=byz/2", "faultseed=7"}, "e5a963c824831e21"},
		{"adversaries=true", []string{"lockstep", "faults=byz/1"}, "9762caf7bc4aa6dc"},
		{"silent=1", []string{"vlsi", "faults=crash/1"}, "1be9907bf4eaf484"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.spec, "/"), func(t *testing.T) {
			r := run(t, overrideJobs(t, tc.spec, workload.JobOptions{}), 1)[0]
			if r.Key != tc.spec[0]+"/seed=1" {
				t.Fatalf("first job is %q, want seed 1", r.Key)
			}
			if r.Err != nil || r.CheckErr != nil || !r.Admissible() {
				t.Fatalf("err=%v checkErr=%v admissible=%v", r.Err, r.CheckErr, r.Admissible())
			}
			if got := fmt.Sprintf("%016x", r.Trace.StreamHash()); got != tc.hash {
				t.Errorf("stream hash %s, want %s (legacy %s)", got, tc.hash, tc.legacy)
			}
		})
	}
}
