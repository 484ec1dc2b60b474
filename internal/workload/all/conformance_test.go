// The registry-wide conformance suite: every registered workload — current
// and future — is held to the same contracts, replacing per-package
// one-off harnesses. For each source it pins:
//
//   - parameter-space hygiene: docs present, defaults resolve, malformed
//     and undeclared overrides rejected;
//   - fleet determinism: per-job trace hashes, verdicts, ratios, and
//     domain-check errors identical across worker counts and across
//     repeated runs (trace-hash stability);
//   - verdict agreement: the fleet's ABC verdict equals an independent
//     batch check.ABC over a freshly built graph of the same trace, and
//     the source's own domain verdict passes on its default parameters;
//   - watch transparency: streaming the check through the incremental
//     engine (runner.Job.Watch) is invisible on admissible runs — same
//     hash, same verdict, no violation index.
package all_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/runner"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

// conformanceSeeds keeps the suite fast while still exercising the seed
// axis; trace sources ignore the seed and just replicate.
var conformanceSeeds = []int64{1, 2}

// required is the catalogue the acceptance criteria demand; more may
// register, fewer is a failure.
var required = []string{
	"broadcast", "clocksync", "consensus", "lockstep", "omega",
	"parsync", "scenario", "theta", "variants", "vlsi",
}

func source(t *testing.T, name string) workload.Source {
	t.Helper()
	s, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("workload %q not registered (have %v)", name, workload.Names())
	}
	return s
}

// defaultJobs builds a fresh default-parameter job batch; fresh closures
// per call so repeated runs share no state.
func defaultJobs(t *testing.T, name string, opt workload.JobOptions) []runner.Job {
	t.Helper()
	s := source(t, name)
	v, err := s.Resolve(nil)
	if err != nil {
		t.Fatalf("%s: defaults do not resolve: %v", name, err)
	}
	jobs, err := s.Jobs(v, conformanceSeeds, opt)
	if err != nil {
		t.Fatalf("%s: job generation failed: %v", name, err)
	}
	return jobs
}

func run(t *testing.T, jobs []runner.Job, workers int) []runner.JobResult {
	t.Helper()
	results, _, err := runner.Run(context.Background(), jobs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// fingerprint reduces a result to the fields the determinism contract
// covers.
func fingerprint(r runner.JobResult) string {
	hash := uint64(0)
	if r.Trace != nil {
		hash = r.Trace.Hash()
	}
	verdict := "none"
	if r.Verdict != nil {
		verdict = fmt.Sprintf("%v", r.Verdict.Admissible)
	}
	checkErr := "<nil>"
	if r.CheckErr != nil {
		checkErr = r.CheckErr.Error()
	}
	return fmt.Sprintf("key=%s err=%v hash=%016x verdict=%s ratio=%v/%v fv=%d check=%s",
		r.Key, r.Err, hash, verdict, r.Ratio, r.RatioFound, r.FirstViolation, checkErr)
}

func TestConformanceRegistryComplete(t *testing.T) {
	for _, name := range required {
		source(t, name)
	}
}

func TestConformanceParamSpaces(t *testing.T) {
	for _, name := range workload.Names() {
		s := source(t, name)
		if s.Doc == "" {
			t.Errorf("%s: no Doc", name)
		}
		if len(s.Params) == 0 {
			t.Errorf("%s: empty parameter space", name)
		}
		for _, p := range s.Params {
			if p.Doc == "" {
				t.Errorf("%s: param %s has no Doc", name, p.Name)
			}
		}
		if _, err := s.Resolve(nil); err != nil {
			t.Errorf("%s: defaults do not resolve: %v", name, err)
		}
		if _, err := s.Resolve(map[string]string{"definitely-not-a-param": "1"}); err == nil {
			t.Errorf("%s: undeclared override accepted", name)
		}
		if len(s.Params) > 0 && s.Params[0].Kind != workload.String {
			if _, err := s.Resolve(map[string]string{s.Params[0].Name: "!!"}); err == nil {
				t.Errorf("%s: malformed %s accepted", name, s.Params[0].Name)
			}
		}
	}
}

// TestConformanceFleetDeterminism pins fleet==serial trace hashes,
// verdicts, and domain-check errors for every registration, plus
// stability across repeated runs.
func TestConformanceFleetDeterminism(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			baseline := run(t, defaultJobs(t, name, workload.JobOptions{Ratio: true}), 1)
			for _, r := range baseline {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
			}
			again := run(t, defaultJobs(t, name, workload.JobOptions{Ratio: true}), 1)
			wide := run(t, defaultJobs(t, name, workload.JobOptions{Ratio: true}), 4)
			for i := range baseline {
				want := fingerprint(baseline[i])
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

// TestConformanceVerdictAgreesWithCheck re-derives every ABC verdict with
// an independently built graph and the batch checker, and requires the
// source's own domain verdict to pass on its default parameter point.
func TestConformanceVerdictAgreesWithCheck(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			jobs := defaultJobs(t, name, workload.JobOptions{})
			for i, r := range run(t, jobs, 2) {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Key, r.Err)
				}
				if r.CheckErr != nil {
					t.Errorf("%s: domain verdict failed on defaults: %v", r.Key, r.CheckErr)
				}
				if jobs[i].Xi.Sign() <= 0 {
					continue
				}
				if r.Verdict == nil {
					t.Errorf("%s: Xi=%v set but no verdict", r.Key, jobs[i].Xi)
					continue
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

// TestConformanceWatchInvisibleOnAdmissible runs every simulation source
// with and without the streaming monitor: on admissible default
// parameters the watched run must produce the identical trace and
// verdict, with no violation index.
func TestConformanceWatchInvisibleOnAdmissible(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			plain := defaultJobs(t, name, workload.JobOptions{})
			if plain[0].Cfg == nil || plain[0].Xi.Sign() <= 0 {
				t.Skipf("%s: trace source or no Ξ — watch does not apply", name)
			}
			batch := run(t, plain, 2)
			watched := run(t, defaultJobs(t, name, workload.JobOptions{Watch: true}), 2)
			for i := range batch {
				b, w := batch[i], watched[i]
				if b.Err != nil || w.Err != nil {
					t.Fatalf("%s: err batch=%v watch=%v", b.Key, b.Err, w.Err)
				}
				if !b.Admissible() {
					t.Fatalf("%s: default parameters must be admissible for the watch contract", b.Key)
				}
				if !w.Admissible() || w.FirstViolation != -1 {
					t.Errorf("%s: watch verdict admissible=%v first-violation=%d on an admissible run",
						w.Key, w.Admissible(), w.FirstViolation)
				}
				if b.Trace.Hash() != w.Trace.Hash() {
					t.Errorf("%s: monitoring changed the trace (hash %016x vs %016x)",
						b.Key, b.Trace.Hash(), w.Trace.Hash())
				}
			}
		})
	}
}
