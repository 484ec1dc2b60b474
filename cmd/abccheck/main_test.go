package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
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

// validTraceJSON is a hand-written 2-process trace: both processes wake
// at 0, and p0's first step sends one message that p1 receives at 1.
const validTraceJSON = `{"n":2,"faulty":[false,false],
"events":[
 {"proc":0,"index":0,"time":"0","trigger":0,"processed":true},
 {"proc":1,"index":0,"time":"0","trigger":1,"processed":true},
 {"proc":1,"index":1,"time":"1","trigger":2,"processed":true}],
"messages":[
 {"id":0,"from":-1,"to":0,"sendStep":-1,"sendTime":"0","recvTime":"0","wakeup":true},
 {"id":1,"from":-1,"to":1,"sendStep":-1,"sendTime":"0","recvTime":"0","wakeup":true},
 {"id":2,"from":0,"to":1,"sendStep":0,"sendTime":"0","recvTime":"1"}]}`

// malformedTraces edit one field of validTraceJSON each. Before the trace
// reader checked them, the first panicked with an index out of range in
// causality, the second died of an out-of-memory allocation of N index
// rows, and the third was accepted and checked without its message edge.
var malformedTraces = []struct {
	name, old, new, wantErr string
}{
	{"sender-out-of-range", `"from":0,`, `"from":9,`, "sender 9 out of range"},
	{"huge-n", `"n":2,`, `"n":1000000000000,`, "Faulty has length 2"},
	{"dangling-send-step", `"sendStep":0,`, `"sendStep":99,`, "names send step 99"},
}

func writeJSON(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejectsMalformedTraces pins that each malformed trace is a clean
// input error (exit 2), not a panic, an OOM or a verdict.
func TestRunRejectsMalformedTraces(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-xi", "2", writeJSON(t, validTraceJSON)}, &out, &errOut); err != nil {
		t.Fatalf("valid trace: %v", err)
	}
	for _, tt := range malformedTraces {
		body := strings.Replace(validTraceJSON, tt.old, tt.new, 1)
		if body == validTraceJSON {
			t.Fatalf("%s: edit %q not applied", tt.name, tt.old)
		}
		err := run([]string{"-xi", "2", writeJSON(t, body)}, &out, &errOut)
		if err == nil || errors.Is(err, errInadmissible) || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: err = %v, want an error containing %q", tt.name, err, tt.wantErr)
		}
	}
}

// FuzzReadJSON: any input is either rejected by the trace reader or
// accepted as a trace that graph construction and the ABC checker handle
// without panicking.
func FuzzReadJSON(f *testing.F) {
	f.Add(validTraceJSON)
	for _, tt := range malformedTraces {
		f.Add(strings.Replace(validTraceJSON, tt.old, tt.new, 1))
	}
	f.Fuzz(func(t *testing.T, body string) {
		tr, err := sim.ReadJSON(strings.NewReader(body))
		if err != nil {
			return
		}
		g := causality.Build(tr, causality.Options{})
		if _, err := check.ABC(g, rat.FromInt(2)); err != nil && !strings.HasPrefix(err.Error(), "check: ") {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
