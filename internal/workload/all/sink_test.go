// The registry-wide sink-equivalence suite: bounded trace retention
// (trace=window/K, trace=none) must be observationally invisible below
// the trace itself. For every registered simulation workload the same
// config run under full, window, and none retention agrees on event and
// message totals and on the running stream digest; the incremental
// watcher reaches the same first violation over a sliding window as over
// the complete record; and Resolve refuses retention modes a source's
// domain verdict cannot survive.
package all_test

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

// simConfig builds a fresh default-parameter simulation config for the
// named source, or nil for trace-replay sources (parsync, scenario).
// Fresh per call: process closures may be stateful, so each retention
// run gets its own spawners.
func simConfig(t *testing.T, name string, seed int64) *sim.Config {
	t.Helper()
	s := source(t, name)
	v, err := s.Resolve(nil)
	if err != nil {
		t.Fatalf("%s: defaults do not resolve: %v", name, err)
	}
	jobs, err := s.Jobs(v, []int64{seed}, workload.JobOptions{NoVerdict: true})
	if err != nil {
		t.Fatalf("%s: job generation failed: %v", name, err)
	}
	return jobs[0].Cfg
}

// TestSinkEquivalenceAllSources runs every registered simulation source
// under all three retention modes and requires identical totals,
// identical stream digests, and an identical truncation flag. The sink
// is swapped directly on the config — below the Resolve policy layer —
// because the equivalence must hold even for sources whose verdicts
// need the full trace.
func TestSinkEquivalenceAllSources(t *testing.T) {
	const seed = 3
	engine := sim.NewEngine()
	for _, name := range workload.Names() {
		cfg := simConfig(t, name, seed)
		if cfg == nil {
			continue // trace-replay source, no simulation to re-run
		}
		t.Run(name, func(t *testing.T) {
			full, err := engine.Run(*cfg)
			if err != nil {
				t.Fatalf("full: %v", err)
			}
			ft := full.Trace
			if !ft.Complete() {
				t.Fatalf("default retention is %v, want complete", ft.Retention())
			}
			if ft.TotalEvents() == 0 {
				t.Fatal("default run recorded no events")
			}
			// Reassemble folds the complete record after the fact; the
			// engine folded it while recording.
			re, err := sim.Reassemble(ft.N, ft.Events, ft.Msgs, ft.Faulty)
			if err != nil {
				t.Fatal(err)
			}
			if re.StreamHash() != ft.StreamHash() {
				t.Fatalf("engine digest %016x, folded record %016x", ft.StreamHash(), re.StreamHash())
			}
			const k = 64
			for _, tc := range []struct {
				mode string
				sink sim.Sink
			}{
				{"window", sim.RetainWindow(k)},
				{"none", sim.RetainNone()},
			} {
				cfg := simConfig(t, name, seed)
				cfg.Sink = tc.sink
				res, err := engine.Run(*cfg)
				if err != nil {
					t.Fatalf("%s: %v", tc.mode, err)
				}
				bt := res.Trace
				if bt.TotalEvents() != ft.TotalEvents() || bt.TotalMsgs() != ft.TotalMsgs() {
					t.Fatalf("%s: totals (%d, %d), want (%d, %d)",
						tc.mode, bt.TotalEvents(), bt.TotalMsgs(), ft.TotalEvents(), ft.TotalMsgs())
				}
				if bt.StreamHash() != ft.StreamHash() {
					t.Fatalf("%s: stream hash %016x, want %016x", tc.mode, bt.StreamHash(), ft.StreamHash())
				}
				if res.Truncated != full.Truncated {
					t.Fatalf("%s: truncated %v, want %v", tc.mode, res.Truncated, full.Truncated)
				}
				if tc.mode == "window" && len(bt.Events) > bt.TotalEvents() {
					t.Fatalf("window retained %d of %d events", len(bt.Events), bt.TotalEvents())
				}
			}
		})
	}
}

// TestNetFaultSinkEquivalence is the retention half of the fault-plane
// acceptance bar: under message drops, duplicates, delay spikes, a
// transient partition, and a recovering process — the config that draws
// the most from the per-message fault stream — full, window, and none
// retention must agree on totals and on the running stream digest.
// Dropped deliveries are folded into the digest as they happen, so any
// retention-dependent divergence in the fault layer shows up here.
func TestNetFaultSinkEquivalence(t *testing.T) {
	s := source(t, "broadcast")
	engine := sim.NewEngine()
	for _, spec := range []string{
		"drop/0.3",
		"dup/0.25+spike/0.2@2",
		"partition/halves@2..5",
		"recover/1@2..4+drop/0.2+dup/0.15",
	} {
		t.Run(spec, func(t *testing.T) {
			cfgFor := func() *sim.Config {
				v, err := s.Resolve(map[string]string{"faults": spec})
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				jobs, err := s.Jobs(v, []int64{7}, workload.JobOptions{NoVerdict: true})
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				return jobs[0].Cfg
			}
			full, err := engine.Run(*cfgFor())
			if err != nil {
				t.Fatal(err)
			}
			ft := full.Trace
			if ft.TotalMsgs() == 0 {
				t.Fatal("run recorded no messages")
			}
			for _, tc := range []struct {
				mode string
				sink sim.Sink
			}{
				{"window", sim.RetainWindow(16)},
				{"none", sim.RetainNone()},
			} {
				cfg := cfgFor()
				cfg.Sink = tc.sink
				res, err := engine.Run(*cfg)
				if err != nil {
					t.Fatalf("%s: %v", tc.mode, err)
				}
				bt := res.Trace
				if bt.TotalEvents() != ft.TotalEvents() || bt.TotalMsgs() != ft.TotalMsgs() {
					t.Fatalf("%s: totals (%d, %d), want (%d, %d)",
						tc.mode, bt.TotalEvents(), bt.TotalMsgs(), ft.TotalEvents(), ft.TotalMsgs())
				}
				if bt.StreamHash() != ft.StreamHash() {
					t.Fatalf("%s: stream hash %016x, want %016x", tc.mode, bt.StreamHash(), ft.StreamHash())
				}
				if res.Truncated != full.Truncated {
					t.Fatalf("%s: truncated %v, want %v", tc.mode, res.Truncated, full.Truncated)
				}
			}
		})
	}
}

// TestWindowWatchMatchesBatchFirstViolation pins the watch path that
// bounded retention exists to serve: on an inadmissible broadcast load
// (delays [1, 3] against Ξ = 3/2), the incremental checker fed by a
// sliding window must abort at the same event, with the same verdict, as
// both the full-trace watcher and the full-trace batch check.
func TestWindowWatchMatchesBatchFirstViolation(t *testing.T) {
	s := source(t, "broadcast")
	base := map[string]string{"n": "5", "target": "8", "min": "1", "max": "3", "xi": "3/2"}
	type outcome struct {
		violation  int
		admissible bool
	}
	runOne := func(trace string, watch bool) outcome {
		t.Helper()
		overrides := map[string]string{"trace": trace}
		for k, v := range base {
			overrides[k] = v
		}
		vals, err := s.Resolve(overrides)
		if err != nil {
			t.Fatalf("trace=%s: %v", trace, err)
		}
		jobs, err := s.Jobs(vals, []int64{1}, workload.JobOptions{Watch: watch})
		if err != nil {
			t.Fatalf("trace=%s: %v", trace, err)
		}
		r := run(t, jobs, 1)[0]
		if r.Err != nil {
			t.Fatalf("trace=%s: %v", trace, r.Err)
		}
		if r.Verdict == nil {
			t.Fatalf("trace=%s watch=%v: no verdict", trace, watch)
		}
		return outcome{violation: r.FirstViolation, admissible: r.Verdict.Admissible}
	}

	batch := runOne("full", false)
	fullWatch := runOne("full", true)
	windowWatch := runOne("window/256", true)

	if batch.admissible {
		t.Fatal("delays [1, 3] against Ξ=3/2 should be inadmissible")
	}
	if fullWatch.admissible || windowWatch.admissible {
		t.Fatalf("watcher verdicts (full %v, window %v) disagree with batch (inadmissible)",
			fullWatch.admissible, windowWatch.admissible)
	}
	if fullWatch.violation < 0 {
		t.Fatal("full-trace watcher reported no first violation")
	}
	if windowWatch.violation != fullWatch.violation {
		t.Fatalf("window watcher stopped at event %d, full-trace watcher at %d",
			windowWatch.violation, fullWatch.violation)
	}
}

// TestWindowWatchWithRecoveryFaults is the satellite golden-trace case:
// recovery faults inject unprocessed down-receptions and a deferred
// wake-up into the event stream, and the incremental watcher fed by a
// sliding window must still abort at exactly the first violation the
// full-trace watcher and the full-trace batch check find on the same
// inadmissible load.
func TestWindowWatchWithRecoveryFaults(t *testing.T) {
	s := source(t, "broadcast")
	base := map[string]string{
		"n": "5", "target": "8", "min": "1", "max": "3", "xi": "3/2",
		"faults": "recover/1@2..4",
	}
	type outcome struct {
		violation  int
		admissible bool
	}
	runOne := func(trace string, watch bool) outcome {
		t.Helper()
		overrides := map[string]string{"trace": trace}
		for k, v := range base {
			overrides[k] = v
		}
		vals, err := s.Resolve(overrides)
		if err != nil {
			t.Fatalf("trace=%s: %v", trace, err)
		}
		jobs, err := s.Jobs(vals, []int64{1}, workload.JobOptions{Watch: watch})
		if err != nil {
			t.Fatalf("trace=%s: %v", trace, err)
		}
		r := run(t, jobs, 1)[0]
		if r.Err != nil {
			t.Fatalf("trace=%s: %v", trace, r.Err)
		}
		if r.Verdict == nil {
			t.Fatalf("trace=%s watch=%v: no verdict", trace, watch)
		}
		return outcome{violation: r.FirstViolation, admissible: r.Verdict.Admissible}
	}

	batch := runOne("full", false)
	fullWatch := runOne("full", true)
	windowWatch := runOne("window/256", true)

	if batch.admissible {
		t.Fatal("delays [1, 3] against Ξ=3/2 should be inadmissible")
	}
	if fullWatch.admissible || windowWatch.admissible {
		t.Fatalf("watcher verdicts (full %v, window %v) disagree with batch (inadmissible)",
			fullWatch.admissible, windowWatch.admissible)
	}
	if fullWatch.violation < 0 {
		t.Fatal("full-trace watcher reported no first violation")
	}
	if windowWatch.violation != fullWatch.violation {
		t.Fatalf("window watcher stopped at event %d, full-trace watcher at %d",
			windowWatch.violation, fullWatch.violation)
	}
}

// TestRetentionPolicy pins the Resolve/Jobs policy layer: sources whose
// domain verdicts read the recorded trace reject bounded retention,
// trace-agnostic sources accept it, and watching under trace=none is
// refused at job-generation time.
func TestRetentionPolicy(t *testing.T) {
	needsTrace := []string{"clocksync", "consensus", "lockstep", "omega", "theta", "vlsi"}
	for _, name := range needsTrace {
		for _, trace := range []string{"none", "window/8"} {
			if _, err := source(t, name).Resolve(map[string]string{"trace": trace}); err == nil {
				t.Errorf("%s: trace=%s resolved, want rejection (verdict needs the trace)", name, trace)
			} else if !strings.Contains(err.Error(), "trace=full") {
				t.Errorf("%s: trace=%s: error %q does not point at trace=full", name, trace, err)
			}
		}
	}
	for _, name := range []string{"broadcast", "variants"} {
		for _, trace := range []string{"none", "window/8"} {
			v, err := source(t, name).Resolve(map[string]string{"trace": trace})
			if err != nil {
				t.Errorf("%s: trace=%s rejected: %v", name, trace, err)
				continue
			}
			if _, err := source(t, name).Jobs(v, []int64{1}, workload.JobOptions{}); err != nil {
				t.Errorf("%s: trace=%s jobs failed: %v", name, trace, err)
			}
		}
	}
	if _, err := source(t, "broadcast").Resolve(map[string]string{"trace": "window/0"}); err == nil {
		t.Error("broadcast: trace=window/0 resolved, want parse rejection")
	}
	v, err := source(t, "broadcast").Resolve(map[string]string{"trace": "none"})
	if err != nil {
		t.Fatalf("broadcast trace=none: %v", err)
	}
	if _, err := source(t, "broadcast").Jobs(v, []int64{1}, workload.JobOptions{Watch: true}); err == nil {
		t.Error("broadcast: trace=none + Watch generated jobs, want rejection")
	}
}
