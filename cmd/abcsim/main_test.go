package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunSingleBroadcast(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=3", "-seed", "1"}
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
	args := []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=3", "-seed", "1", "-trace", path}
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

// TestRunDOTExportGolden pins `abcsim -workload scenario -dot` byte for
// byte against testdata/scenario.dot: the graph name, one node per event
// labelled with its process and index, every edge in edge order, and
// local edges dashed while messages are plain.
func TestRunDOTExportGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graph.dot")
	var out, errOut strings.Builder
	if err := run([]string{"-workload", "scenario", "-dot", path}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "DOT written to "+path) {
		t.Errorf("missing export confirmation:\n%s", out.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "scenario.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("DOT export differs from testdata/scenario.dot:\n%s", got)
	}
	for _, line := range []string{"digraph execution {", `  n0 [label="p0/0"];`, "  n1 -> n13 [style=dashed];", "  n0 -> n9;"} {
		if !strings.Contains(string(got), line+"\n") {
			t.Errorf("DOT export lacks the line %q", line)
		}
	}
}

// TestRunFleetSweep smoke-tests -runs batch mode and pins the CLI-level
// determinism contract: identical output at every worker count.
func TestRunFleetSweep(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "2", "8"} {
		var out, errOut strings.Builder
		args := []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=3",
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
	args := []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=5",
		"-param", "xi=3/2", "-param", "max=3", "-seed", "0", "-watch"}
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
	args = []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=3",
		"-param", "xi=2", "-param", "max=17/16", "-seed", "1", "-watch"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "admissible: true") ||
		strings.Contains(got, "first fails") {
		t.Errorf("admissible watch output wrong:\n%s", got)
	}

	// Sweep mode: per-seed lines carry the violation index.
	out.Reset()
	args = []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=5",
		"-param", "xi=3/2", "-param", "max=3", "-seed", "0", "-runs", "4", "-workers", "2", "-watch"}
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

// TestRunTopologyOverflowSpecs pins the two topology specs whose size
// arithmetic overflowed: a torus dimension so large that rows·cols wraps
// around to n is a setup error, and a scale-free attachment count far
// beyond n runs as the complete attachment graph instead of failing to
// allocate.
func TestRunTopologyOverflowSpecs(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-param", "n=4",
		"-param", "topology=torus/4611686018427387905x4"}
	if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), "dimension exceeds") {
		t.Errorf("torus overflow: err %v, want a dimension-exceeds setup error", err)
	}
	out.Reset()
	args = []string{"-workload", "broadcast", "-param", "n=4",
		"-param", "topology=scalefree/9223372036854775807"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("scalefree overflow: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "admissible") {
		t.Errorf("scalefree overflow run printed no verdict:\n%s", out.String())
	}
}

// TestRunEngineSetupLimits pins engine-setup inputs at the limits: a
// retention window near MaxInt runs like any window larger than the run
// (its pre-size and slide test overflowed int, and panicked); a system
// size beyond the engine's int32 position rows is a setup error, not a
// failed allocation; and so is an event budget beyond int32 positions,
// which the execution graph's node IDs are, rejected before the run
// starts.
func TestRunEngineSetupLimits(t *testing.T) {
	for _, k := range []string{"4611686018427387904", "9223372036854775807"} {
		var out, errOut strings.Builder
		args := []string{"-workload", "broadcast", "-param", "trace=window/" + k}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("window/%s: %v (stderr: %s)", k, err, errOut.String())
		}
		if !strings.Contains(out.String(), "164 events") {
			t.Errorf("window/%s: unexpected run:\n%s", k, out.String())
		}
	}
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-param", "n=99999999999999"}
	if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), "exceeds the engine's limit") {
		t.Errorf("n=99999999999999: err %v, want an engine-limit setup error", err)
	}
	out.Reset()
	args = []string{"-workload", "broadcast", "-param", "maxevents=2147483648"}
	if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), "MaxEvents = 2147483648 exceeds the engine's limit") {
		t.Errorf("maxevents=2147483648: err %v, want an engine-limit setup error", err)
	}
	if strings.Contains(out.String(), "events") {
		t.Errorf("maxevents=2147483648 ran:\n%s", out.String())
	}
}

// TestRunJSON pins the NDJSON contract of -json: one "job" record per
// run carrying the full parameter point (base overlaid with sweep
// assignments), seed, verdict, stream digest, and throughput, followed
// by exactly one "fleet" footer with the aggregate counts and the
// resolved worker count.
func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=3",
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

// TestRunJSONMultiAxis pins each record's parameter point on a two-axis
// sweep: its params and seed are the ones its key names, in row-major
// order (first axis outermost) with seeds innermost.
func TestRunJSONMultiAxis(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-workload", "broadcast", "-param", "n=3", "-param", "target=3",
		"-sweep", "n=3,4", "-sweep", "xi=3/2,2", "-runs", "2", "-workers", "2", "-json"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	want := []string{
		"broadcast/n=3/xi=3/2/seed=1", "broadcast/n=3/xi=3/2/seed=2",
		"broadcast/n=3/xi=2/seed=1", "broadcast/n=3/xi=2/seed=2",
		"broadcast/n=4/xi=3/2/seed=1", "broadcast/n=4/xi=3/2/seed=2",
		"broadcast/n=4/xi=2/seed=1", "broadcast/n=4/xi=2/seed=2",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("got %d NDJSON lines, want %d:\n%s", len(lines), len(want)+1, out.String())
	}
	for i, line := range lines[:len(want)] {
		var rec jobRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad job record %q: %v", line, err)
		}
		if rec.Key != want[i] {
			t.Errorf("record %d: key %q, want %q", i, rec.Key, want[i])
		}
		if got := fmt.Sprintf("broadcast/n=%s/xi=%s/seed=%d", rec.Params["n"], rec.Params["xi"], rec.Seed); got != rec.Key {
			t.Errorf("record %d: params and seed name %q, key is %q", i, got, rec.Key)
		}
		if rec.Params["target"] != "3" || rec.Xi != rec.Params["xi"] {
			t.Errorf("record %d: target=%q xi=%q, want base target 3 and the cell's Ξ %q", i, rec.Params["target"], rec.Xi, rec.Params["xi"])
		}
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	cases := [][]string{
		{"-workload", "no-such-workload"},
		{"-runs", "0"},
		{"-runs", "2", "-trace", "t.json"},
		{"-sweep", "xi=2,3", "-trace", "t.json"},
		{"-json", "-trace", "t.json"},
		{"-param", "xi=not-a-rational"},
		{"-param", "no-such-param=1"},
		{"-param", "missing-equals"},
		{"-sweep", "ghost=1,2"},
		{"-sweep", "xi"},
		{"-sweep", "xi=2,3", "-sweep", "xi=5/4"},   // duplicate axis
		{"-sweep", "xi=2,2"},                       // duplicate value: two jobs under one key
		{"-workload", "scenario", "-param", "n=4"}, // scenario declares no n
		{"-workload", "scenario", "-param", "fig=fig77"},
		// Delay bounds admitting a negative delay are setup errors, not
		// engine panics.
		{"-workload", "broadcast", "-param", "max=-1"},
		{"-workload", "broadcast", "-param", "min=2", "-param", "max=1"},
		// Ξ at or below 1 is a setup error, not a run without the ABC check.
		{"-workload", "clocksync", "-param", "xi=0"},
		{"-workload", "clocksync", "-param", "xi=-1"},
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
	// Batches too large to hold, and seed ranges past int64, are usage
	// errors before anything is allocated for them; mistyped fault
	// policies are setup errors.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "broadcast", "-runs", "1000000000000"}, "exceeds 1048576 jobs"},
		{[]string{"-workload", "broadcast", "-runs", "1048577"}, "exceeds 1048576 jobs"},
		{[]string{"-workload", "broadcast", "-runs", "600000", "-sweep", "xi=2,3"}, "exceeds 1048576 jobs"},
		{[]string{"-workload", "broadcast", "-runs", "9223372036854775807", "-sweep", "xi=2,3"}, "exceeds 1048576 jobs"},
		{[]string{"-workload", "broadcast", "-seed", "9223372036854775807", "-runs", "2"}, "overflows int64"},
		{[]string{"-workload", "broadcast", "-seed", "9223372036854775000", "-runs", "1000"}, "overflows int64"},
		// No parameter takes the empty value: faults= would run as
		// faults=none while its record said "faults":"", and an empty
		// sweep value would rerun the faults=none cell under the key
		// faults=.
		{[]string{"-workload", "broadcast", "-param", "faults="}, `param faults: "" is not a valid string`},
		{[]string{"-workload", "broadcast", "-sweep", "faults=none,", "-json"}, `param faults: "" is not a valid string`},
		// Mistyped fault policies are errors without a recover/ clause too.
		{[]string{"-workload", "broadcast", "-param", "inflight=hodl"}, `inflight="hodl": want drop or hold`},
		{[]string{"-workload", "broadcast", "-param", "recovery=amnesai"}, `recovery="amnesai": want durable or amnesia`},
	} {
		var out, errOut strings.Builder
		if err := run(tc.args, &out, &errOut); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err %v, want %q", tc.args, err, tc.want)
		}
	}
	// -param is the only parameter spelling: -n is not a flag.
	var out, errOut strings.Builder
	if err := run([]string{"-n", "4"}, &out, &errOut); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -n") {
		t.Errorf("-n 4: err %v, want an undefined-flag error", err)
	}
	// VLSI chips below the n >= 3f+1 bound are setup errors, not panics in
	// the clock-synchronization processes.
	for _, args := range [][]string{
		{"-workload", "vlsi", "-param", "n=1"},
		{"-workload", "vlsi", "-param", "n=2"},
		{"-workload", "vlsi", "-param", "n=3"},
		{"-workload", "vlsi", "-param", "f=2"},
		{"-workload", "vlsi", "-param", "n=6", "-param", "f=2"},
	} {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), "vlsi: need n >= 3f+1") {
			t.Errorf("args %v: err %v, want the vlsi n >= 3f+1 error", args, err)
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
	err := run([]string{"-workload", "scenario", "-param", "fig=fig3", "-param", "xi=2"}, &out, &errOut)
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
	err = run([]string{"-workload", "lockstep", "-param", "n=4", "-param", "f=1", "-param", "target=3", "-seed", "2"}, &out, &errOut)
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
	err = run([]string{"-workload", "variants", "-param", "target=3", "-seed", "1"}, &out, &errOut)
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
	args = []string{"-workload", "clocksync", "-param", "target=4",
		"-param", "maxevents=40", "-sweep", "n=4,7", "-param", "f=1"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "truncated") {
		t.Errorf("expected truncated runs in:\n%s", got)
	}
}
