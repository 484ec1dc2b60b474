package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunSingleBroadcast(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-n", "3", "-target", "3", "-seed", "1"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"workload=broadcast n=3 seed=1:",
		"ABC(Ξ=2) admissible: true",
		"critical ratio:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// broadcast declares no domain verdict; no vacuous "ok" line.
	if strings.Contains(got, "domain verdict") {
		t.Errorf("verdict line printed for a verdict-free source:\n%s", got)
	}
}

func TestRunTraceExportRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-n", "3", "-target", "3", "-seed", "1", "-trace", path}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "trace written to "+path) {
		t.Errorf("missing export confirmation:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := sim.ReadJSON(f)
	if err != nil {
		t.Fatalf("exported trace does not round-trip: %v", err)
	}
	if tr.N != 3 || len(tr.Events) == 0 {
		t.Errorf("exported trace malformed: N=%d events=%d", tr.N, len(tr.Events))
	}
}

// TestRunFleetSweep smoke-tests -runs batch mode and pins the CLI-level
// determinism contract: identical output at every worker count.
func TestRunFleetSweep(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "2", "8"} {
		var out, errOut strings.Builder
		args := []string{"-workload", "broadcast", "-n", "3", "-target", "3",
			"-seed", "1", "-runs", "5", "-workers", workers}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("workers=%s: %v (stderr: %s)", workers, err, errOut.String())
		}
		got := out.String()
		for _, want := range []string{
			"seed=1:", "seed=5:",
			"fleet: 5 runs on " + workers + " workers: 5 admissible",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("workers=%s output missing %q:\n%s", workers, want, got)
			}
		}
		// The per-seed body must not depend on the worker count; mask the
		// footer's worker number before comparing.
		outputs = append(outputs, strings.ReplaceAll(got, " on "+workers+" workers", ""))
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Errorf("sweep output differs across worker counts:\n%q\n%q\n%q",
			outputs[0], outputs[1], outputs[2])
	}
}

// TestRunWatch drives -watch through both outcomes: a wide-delay run that
// stops at its first violating event (named in the report) and a
// tight-delay run that stays admissible throughout.
func TestRunWatch(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-n", "3", "-target", "5",
		"-xi", "3/2", "-max", "3", "-seed", "0", "-watch"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"ABC(Ξ=3/2) admissible: false",
		"admissibility first fails at event ",
		"run stopped there",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("watch output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	args = []string{"-workload", "broadcast", "-n", "3", "-target", "3",
		"-xi", "2", "-max", "17/16", "-seed", "1", "-watch"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "admissible: true") ||
		strings.Contains(got, "first fails") {
		t.Errorf("admissible watch output wrong:\n%s", got)
	}

	// Sweep mode: per-seed lines carry the violation index.
	out.Reset()
	args = []string{"-workload", "broadcast", "-n", "3", "-target", "5",
		"-xi", "3/2", "-max", "3", "-seed", "0", "-runs", "4", "-workers", "2", "-watch"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "first-violation=") {
		t.Errorf("sweep watch output missing first-violation:\n%s", got)
	}
}

// TestRunWatchRatioSearchInt64Guard pins that the ratio search runs past
// the size where a graph-size strictness scale used to overflow int64: a
// watched 16-process broadcast over 280 steps builds a 7·10^4-node graph,
// and its critical ratio must be printed, not an overflow error.
func TestRunWatchRatioSearchInt64Guard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 7·10^4-node graph and runs its ratio search")
	}
	var out, errOut strings.Builder
	args := []string{"-watch", "-workload", "broadcast", "-param", "n=16",
		"-param", "target=280", "-param", "trace=window/4096"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "critical ratio: 10/7") {
		t.Errorf("output lacks the critical ratio 10/7:\n%s", got)
	}
}

// TestRunJSON pins the NDJSON contract of -json: one "job" record per
// run carrying the full parameter point (base overlaid with sweep
// assignments), seed, verdict, stream digest, and throughput, followed
// by exactly one "fleet" footer with the aggregate counts and the
// resolved worker count.
func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-n", "3", "-target", "3",
		"-seed", "1", "-runs", "2", "-sweep", "xi=3/2,2", "-workers", "2", "-json"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 { // 2 xi cells × 2 seeds + footer
		t.Fatalf("got %d NDJSON lines, want 5:\n%s", len(lines), out.String())
	}
	var jobs []jobRecord
	for _, line := range lines[:4] {
		var rec jobRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad job record %q: %v", line, err)
		}
		jobs = append(jobs, rec)
	}
	for i, rec := range jobs {
		if rec.Kind != "job" || rec.Workload != "broadcast" {
			t.Errorf("record %d: kind=%q workload=%q", i, rec.Kind, rec.Workload)
		}
		if rec.Events == 0 || rec.StreamHash == "" {
			t.Errorf("record %d: no events/digest: %+v", i, rec)
		}
		if rec.Params["n"] != "3" {
			t.Errorf("record %d: params missing base override n=3: %v", i, rec.Params)
		}
		if rec.Verdict == "" {
			t.Errorf("record %d: no verdict", i)
		}
	}
	// Sweep assignments overlay the base point; seeds are innermost.
	if jobs[0].Params["xi"] != "3/2" || jobs[2].Params["xi"] != "2" {
		t.Errorf("sweep overlay wrong: xi[0]=%q xi[2]=%q", jobs[0].Params["xi"], jobs[2].Params["xi"])
	}
	if jobs[0].Seed != 1 || jobs[1].Seed != 2 || jobs[2].Seed != 1 {
		t.Errorf("seeds wrong: %d, %d, %d", jobs[0].Seed, jobs[1].Seed, jobs[2].Seed)
	}
	var footer fleetRecord
	if err := json.Unmarshal([]byte(lines[4]), &footer); err != nil {
		t.Fatalf("bad footer %q: %v", lines[4], err)
	}
	if footer.Kind != "fleet" || footer.Runs != 4 || footer.Workers != 2 {
		t.Errorf("footer wrong: %+v", footer)
	}
	if footer.Admissible+footer.Inadmissible != 4 {
		t.Errorf("footer verdict counts wrong: %+v", footer)
	}
	if footer.Events == 0 || footer.WallSec <= 0 {
		t.Errorf("footer totals missing: %+v", footer)
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	cases := [][]string{
		{"-workload", "no-such-workload"},
		{"-runs", "0"},
		{"-runs", "2", "-trace", "t.json"},
		{"-sweep", "xi=2,3", "-trace", "t.json"},
		{"-json", "-trace", "t.json"},
		{"-xi", "not-a-rational"},
		{"-param", "no-such-param=1"},
		{"-param", "missing-equals"},
		{"-sweep", "ghost=1,2"},
		{"-sweep", "xi"},
		{"-sweep", "xi=2,3", "-sweep", "xi=5/4"}, // duplicate axis
		{"-workload", "scenario", "-n", "4"},     // scenario declares no n
		{"-workload", "scenario", "-param", "fig=fig77"},
		// Delay bounds admitting a negative delay are setup errors, not
		// engine panics.
		{"-workload", "broadcast", "-param", "max=-1"},
		{"-workload", "broadcast", "-param", "min=2", "-param", "max=1"},
		// Ξ at or below 1 is a setup error, not a run without the ABC check.
		{"-workload", "clocksync", "-param", "xi=0"},
		{"-workload", "clocksync", "-xi", "-1"},
		{"-workload", "clocksync", "-sweep", "xi=0,2"},
		// A Ξ beyond int64 is a setup error, not a panic in the checker.
		{"-workload", "broadcast", "-param", "xi=99999999999999999999/3"},
		{"-workload", "broadcast", "-param", "xi=99999999999999999999/3", "-watch"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// The removed per-source fault switches fail loudly: faults= is the
	// only fault vocabulary.
	for _, args := range [][]string{
		{"-workload", "clocksync", "-param", "adversaries=true"},
		{"-workload", "vlsi", "-param", "silent=1"},
	} {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), "has no param") {
			t.Errorf("args %v: err %v, want a has-no-param error", args, err)
		}
	}
}

// TestRunList pins the -list contract: every registered workload appears
// with its parameter space, and the command exits cleanly.
func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run -list: %v (stderr: %s)", err, errOut.String())
	}
	got := out.String()
	for _, name := range workload.Names() {
		if !strings.Contains(got, "\n"+name+" — ") {
			t.Errorf("-list output missing workload %q:\n%s", name, got)
		}
	}
	for _, want := range []string{
		"registered workloads:",
		"-param fig", // scenario's parameter space is printed
		"-param faults",
		"rational",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-list output missing %q:\n%s", want, got)
		}
	}
	// faults= is the only fault vocabulary, and no param kind is bool.
	for _, gone := range []string{"adversaries", "advseed", "silent", "bool"} {
		if strings.Contains(got, gone) {
			t.Errorf("-list output still mentions %q:\n%s", gone, got)
		}
	}
}

// TestRunRegistryWorkloads drives one representative of each source kind
// end to end through the CLI: a trace source with -param, a simulation
// source with domain verdicts, and a source without an admissibility
// parameter.
func TestRunRegistryWorkloads(t *testing.T) {
	// Trace source: Fig. 3 at its violating Ξ.
	var out, errOut strings.Builder
	err := run([]string{"-workload", "scenario", "-param", "fig=fig3", "-xi", "2"}, &out, &errOut)
	if err != nil {
		t.Fatalf("scenario: %v (stderr: %s)", err, errOut.String())
	}
	for _, want := range []string{
		"workload=scenario seed=1:",
		"ABC(Ξ=2) admissible: false",
		"critical ratio: 2 ",
		"domain verdict: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scenario output missing %q:\n%s", want, out.String())
		}
	}

	// Simulation source with theorem verdicts.
	out.Reset()
	err = run([]string{"-workload", "lockstep", "-n", "4", "-f", "1", "-target", "3", "-seed", "2"}, &out, &errOut)
	if err != nil {
		t.Fatalf("lockstep: %v (stderr: %s)", err, errOut.String())
	}
	for _, want := range []string{"workload=lockstep n=4 seed=2:", "domain verdict: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("lockstep output missing %q:\n%s", want, out.String())
		}
	}

	// Source without an xi parameter: no ABC clause, ratio still searched.
	out.Reset()
	err = run([]string{"-workload", "variants", "-target", "3", "-seed", "1"}, &out, &errOut)
	if err != nil {
		t.Fatalf("variants: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); strings.Contains(got, "ABC(") || !strings.Contains(got, "critical ratio:") {
		t.Errorf("variants output wrong (want ratio, no ABC clause):\n%s", got)
	}
}

// TestRunSweepGrid pins -sweep: axes expand row-major with seeds
// innermost, per-cell keys name the swept values, and the footer
// aggregates the whole grid.
func TestRunSweepGrid(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "scenario", "-param", "fig=fig1",
		"-sweep", "xi=5/4,2", "-workers", "2"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	got := out.String()
	wantLines := []string{
		"scenario/xi=5/4/seed=1: ", "ABC(Ξ=5/4) INADMISSIBLE",
		"scenario/xi=2/seed=1: ", "ABC(Ξ=2) admissible",
		"fleet: 2 runs on 2 workers: 1 admissible, 1 inadmissible",
		"max critical ratio: 5/4",
	}
	for _, want := range wantLines {
		if !strings.Contains(got, want) {
			t.Errorf("sweep output missing %q:\n%s", want, got)
		}
	}
	// Grid order: the 5/4 cell precedes the 2 cell.
	if strings.Index(got, "xi=5/4/seed=1") > strings.Index(got, "xi=2/seed=1") {
		t.Errorf("sweep output not in grid order:\n%s", got)
	}

	// Truncated cells are flagged per line: a clocksync sweep whose event
	// budget cannot reach the target.
	out.Reset()
	args = []string{"-workload", "clocksync", "-target", "4",
		"-param", "maxevents=40", "-sweep", "n=4,7", "-f", "1"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "truncated") {
		t.Errorf("expected truncated runs in:\n%s", got)
	}
}
