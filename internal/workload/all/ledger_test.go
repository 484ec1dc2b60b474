package all_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// ledgerInvocation is one abcsim invocation of the benchmark ledger
// (bench/spec.go): a source, its parameter overrides and seed count.
type ledgerInvocation struct {
	source string
	params map[string]string
	runs   int
	watch  bool
}

// ledgerDigests runs the invocations at seed 1 through workload.Lookup,
// Resolve, Jobs and runner.Run, as abcsim does, and returns every job's
// stream digest in record order.
func ledgerDigests(t *testing.T, invs []ledgerInvocation) []string {
	t.Helper()
	var digests []string
	for _, inv := range invs {
		src := source(t, inv.source)
		v, err := src.Resolve(inv.params)
		if err != nil {
			t.Fatalf("%s: %v", inv.source, err)
		}
		jobs, err := src.Jobs(v, runner.Seeds(1, inv.runs), workload.JobOptions{Watch: inv.watch, NoVerdict: true})
		if err != nil {
			t.Fatalf("%s: %v", inv.source, err)
		}
		results, _, err := runner.Run(context.Background(), jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Key, r.Err)
			}
			digests = append(digests, fmt.Sprintf("%016x", r.Trace.StreamHash()))
		}
	}
	return digests
}

// TestLedgerPinsRingAndWatchedMesh pins the stream digests of two
// benchmark ledger workloads at seed 1: the 5·10^4-process ring under
// trace=none (the delivery queue's widest wheel, no retention) and the
// watched 64-process mesh under a 4096-event window (deep causal chains
// through the incremental checker). A change to delivery order, the
// delay draws or the digest fold changes one of them.
func TestLedgerPinsRingAndWatchedMesh(t *testing.T) {
	for _, tc := range []struct {
		name string
		inv  ledgerInvocation
		want string
	}{
		{"ring", ledgerInvocation{source: "broadcast", runs: 1, params: map[string]string{
			"n": "50000", "topology": "ring", "target": "3", "trace": "none", "maxevents": "16777216"}}, "0a945bbe2dd1274f"},
		{"watch-dense", ledgerInvocation{source: "broadcast", runs: 1, watch: true, params: map[string]string{
			"n": "64", "target": "20", "trace": "window/4096", "maxevents": "16777216"}}, "d8f770183b947681"},
	} {
		if got := ledgerDigests(t, []ledgerInvocation{tc.inv}); len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: stream digests %v, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestLedgerPinsCatalogue pins the catalogue ledger workload at seed 1:
// every registered source at its defaults under full retention, seeds
// 1–200 (variants 1–20), in the benchmark's order. The per-job digests
// are folded as the benchmark folds them — each "%016x" digest and a
// newline through FNV-64a, in record order — so a changed, missing or
// reordered job changes the fold.
func TestLedgerPinsCatalogue(t *testing.T) {
	var invs []ledgerInvocation
	for _, name := range required {
		runs := 200
		if name == "variants" {
			runs = 20
		}
		invs = append(invs, ledgerInvocation{source: name, runs: runs})
	}
	digests := ledgerDigests(t, invs)
	h := fnv.New64a()
	for _, d := range digests {
		fmt.Fprintf(h, "%s\n", d)
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "4d0394eed0c88720"; got != want {
		t.Errorf("catalogue: %d jobs fold to %s, pinned %s", len(digests), got, want)
	}
}
