package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// writeTrace serializes a trace to a temp file and returns its path.
func writeTrace(t *testing.T, tr *sim.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// broadcastTrace simulates n processes that each broadcast in their first
// steps steps, with delays uniform in [1, maxDelay].
func broadcastTrace(t *testing.T, n, steps int, maxDelay rat.Rat, seed int64) *sim.Trace {
	t.Helper()
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: sim.UniformDelay{Min: rat.One, Max: maxDelay},
		Seed:   seed, MaxEvents: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func admissibleTrace(t *testing.T) *sim.Trace {
	t.Helper()
	return broadcastTrace(t, 3, 3, rat.New(3, 2), 1)
}

func TestRunAdmissibleTrace(t *testing.T) {
	path := writeTrace(t, admissibleTrace(t))
	var out, errOut strings.Builder
	if err := run([]string{"-xi", "2", path}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"trace: 3 processes", "ABC(Ξ=2): admissible=true"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunInadmissibleTrace feeds Fig. 3's violating execution (ratio
// 4/2 = Ξ = 2) and expects the sentinel that maps to exit status 1, plus
// the witness cycle in the report.
func TestRunInadmissibleTrace(t *testing.T) {
	path := writeTrace(t, scenario.BuildFig3().Trace)
	var out, errOut strings.Builder
	err := run([]string{"-xi", "2", path}, &out, &errOut)
	if !errors.Is(err, errInadmissible) {
		t.Fatalf("run error = %v, want errInadmissible", err)
	}
	got := out.String()
	for _, want := range []string{"admissible=false", "violating relevant cycle"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunWitnessIsRelevant checks the printed witness of a simulated
// inadmissible run from its text alone: the cycle must be simple, relevant
// under Definition 3 (all local edges traversed against the orientation
// whose message class is the smaller one), and its |Z−|/|Z+| must equal
// the printed ratio and reach Ξ.
func TestRunWitnessIsRelevant(t *testing.T) {
	path := writeTrace(t, broadcastTrace(t, 5, 12, rat.FromInt(100), 7))
	var out, errOut strings.Builder
	if err := run([]string{"-xi", "2", path}, &out, &errOut); !errors.Is(err, errInadmissible) {
		t.Fatalf("run error = %v, want errInadmissible", err)
	}
	lines := strings.Split(out.String(), "\n")
	var printed, cycle string
	for i, line := range lines {
		if _, r, ok := strings.Cut(line, "|Z−|/|Z+| = "); ok && i+1 < len(lines) {
			printed, cycle = strings.TrimSuffix(r, "):"), strings.TrimSpace(lines[i+1])
		}
	}
	if cycle == "" {
		t.Fatalf("no witness in output:\n%s", out.String())
	}

	// The cycle prints as "node dir+kind" pairs: "p0/1 →m p1/3 ←l ...".
	fields := strings.Fields(cycle)
	if len(fields)%2 != 0 {
		t.Fatalf("witness is not node/edge pairs: %q", cycle)
	}
	count := map[string]int64{}
	seen := map[string]bool{}
	for i := 0; i < len(fields); i += 2 {
		if seen[fields[i]] {
			t.Errorf("witness not simple: %s repeats in %q", fields[i], cycle)
		}
		seen[fields[i]] = true
		count[fields[i+1]]++
	}
	with, against := count["→m"], count["←m"]
	var ratio rat.Rat
	switch {
	case count["→l"] == 0 && with <= against && with > 0:
		ratio = rat.New(against, with)
	case count["←l"] == 0 && against <= with && against > 0:
		ratio = rat.New(with, against)
	default:
		t.Fatalf("witness is not relevant: %q", cycle)
	}
	want, err := rat.Parse(printed)
	if err != nil {
		t.Fatalf("printed ratio %q: %v", printed, err)
	}
	if !ratio.Equal(want) || ratio.Less(rat.FromInt(2)) {
		t.Errorf("witness ratio %v, printed %v, want equal and >= Ξ = 2", ratio, want)
	}
}

func TestRunExtraChecks(t *testing.T) {
	path := writeTrace(t, admissibleTrace(t))
	var out, errOut strings.Builder
	err := run([]string{"-xi", "2", "-theta", "3", "-phi", "10", "-delta", "10", "-gst", path}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"Θ-Model(Θ=3):", "ParSync(Φ=10, Δ=10):", "◇ABC: stabilization"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunRejectsOversizedXi pins that a Ξ whose numerator or denominator
// overflows int64 is an error (exit 2), not a panic or a verdict.
func TestRunRejectsOversizedXi(t *testing.T) {
	path := writeTrace(t, admissibleTrace(t))
	for _, xi := range []string{"99999999999999999999/3", "99999999999999999999/99999999999999999998"} {
		var out, errOut strings.Builder
		err := run([]string{"-xi", xi, path}, &out, &errOut)
		if err == nil || errors.Is(err, errInadmissible) || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("-xi %s: err = %v, want an int64 overflow error", xi, err)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{}, &out, &errOut); err == nil || errors.Is(err, errInadmissible) {
		t.Errorf("missing file arg: err = %v", err)
	}
	if err := run([]string{"/no/such/file.json"}, &out, &errOut); err == nil {
		t.Error("nonexistent file accepted")
	}
}
