package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
)

// testSource returns a minimal simulation source for registry tests; each
// call builds fresh closures so tests can register under distinct names.
func testSource(name string) Source {
	return Source{
		Name: name,
		Doc:  "test source",
		Params: []Param{
			{Name: "n", Kind: Int, Default: "3", Doc: "processes"},
			{Name: "steps", Kind: Int, Default: "2", Doc: "broadcast steps"},
			{Name: "xi", Kind: Rational, Default: "2", Doc: "model parameter"},
			{Name: "label", Kind: String, Default: "", Doc: "free-form tag"},
			{Name: "strict", Kind: Int, Default: "0", Doc: "nonzero: an inadmissible run fails the verdict"},
			{Name: "budget", Kind: Int64, Default: "0", Doc: "an int64"},
		},
		Job: func(v Values, seed int64) (runner.Job, error) {
			cfg := sim.Config{
				N:      v.Int("n"),
				Spawn:  BroadcastSpawner(v.Int("steps")),
				Delays: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Seed:   seed,
			}
			return runner.Job{Cfg: &cfg}, nil
		},
		Verdict: func(v Values, r *runner.JobResult) error {
			if v.Int("strict") != 0 && r.Verdict != nil && !r.Verdict.Admissible {
				return fmt.Errorf("strict source saw inadmissible run")
			}
			return nil
		},
	}
}

func TestResolveDefaultsAndOverrides(t *testing.T) {
	s := testSource("resolve-test")
	v, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int("n") != 3 || v.Int("steps") != 2 || !v.Rat("xi").Equal(rat.FromInt(2)) {
		t.Errorf("defaults not applied: n=%d steps=%d xi=%v", v.Int("n"), v.Int("steps"), v.Rat("xi"))
	}
	if v.String("label") != "" || v.Int("strict") != 0 || v.Int64("budget") != 0 {
		t.Error("zero-ish defaults not applied")
	}

	v, err = s.Resolve(map[string]string{"n": "5", "xi": "7/4", "strict": "1", "budget": "9000000000"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int("n") != 5 || !v.Rat("xi").Equal(rat.New(7, 4)) || v.Int("strict") != 1 || v.Int64("budget") != 9000000000 {
		t.Errorf("overrides not applied: %d %v %d %d", v.Int("n"), v.Rat("xi"), v.Int("strict"), v.Int64("budget"))
	}

	if _, err := s.Resolve(map[string]string{"nope": "1"}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := s.Resolve(map[string]string{"n": "three"}); err == nil {
		t.Error("non-integer n accepted")
	}
	if _, err := s.Resolve(map[string]string{"xi": "not-a-rat"}); err == nil {
		t.Error("malformed rational accepted")
	}
	if _, err := s.Resolve(map[string]string{"strict": "maybe"}); err == nil {
		t.Error("non-integer strict accepted")
	}
}

func TestValuesSetValidatesLikeResolve(t *testing.T) {
	s := testSource("set-test")
	v, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := v.Set("n", "7")
	if err != nil {
		t.Fatal(err)
	}
	if w.Int("n") != 7 {
		t.Errorf("Set did not apply: n=%d", w.Int("n"))
	}
	if v.Int("n") != 3 {
		t.Errorf("Set mutated the receiver: n=%d", v.Int("n"))
	}
	if _, err := v.Set("n", "x"); err == nil {
		t.Error("Set accepted a malformed value")
	}
	if _, err := v.Set("ghost", "1"); err == nil {
		t.Error("Set accepted an undeclared parameter")
	}
}

func TestValuesPanicsOnMisuse(t *testing.T) {
	s := testSource("panic-test")
	v, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("undeclared name", func() { v.Int("ghost") })
	mustPanic("kind mismatch", func() { v.String("n") })
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, s Source) {
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%s) did not panic", name)
			}
		}()
		Register(s)
	}
	ok := testSource("register-valid")
	Register(ok)
	mustPanic("duplicate", testSource("register-valid"))
	mustPanic("empty name", Source{Job: ok.Job})
	mustPanic("no job", Source{Name: "register-nojob"})
	bad := testSource("register-badparam")
	bad.Params[0].Default = "not-an-int"
	mustPanic("bad default", bad)
	dup := testSource("register-dupparam")
	dup.Params = append(dup.Params, dup.Params[0])
	mustPanic("duplicate param", dup)

	if _, found := Lookup("register-valid"); !found {
		t.Error("registered source not found")
	}
	if _, found := Lookup("never-registered"); found {
		t.Error("lookup invented a source")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

func TestJobsDecoration(t *testing.T) {
	s := testSource("jobs-test")
	v, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Default: Xi comes from the xi parameter, verdict wired into Post.
	jobs, err := s.Jobs(v, runner.Seeds(0, 3), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(jobs))
	}
	for i, job := range jobs {
		if !job.Xi.Equal(rat.FromInt(2)) {
			t.Errorf("job %d: Xi=%v, want 2 (from param)", i, job.Xi)
		}
		if job.Post == nil {
			t.Errorf("job %d: verdict not wired into Post", i)
		}
		want := fmt.Sprintf("jobs-test/seed=%d", i)
		if job.Key != want {
			t.Errorf("job %d: key %q, want %q", i, job.Key, want)
		}
	}

	// Option overrides: Xi replaces the param, Watch/Ratio stamped,
	// NoVerdict drops Post.
	jobs, err = s.Jobs(v, nil, JobOptions{Xi: rat.FromInt(3), Watch: true, Ratio: true, NoVerdict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1 (default seed)", len(jobs))
	}
	job := jobs[0]
	if !job.Xi.Equal(rat.FromInt(3)) || !job.Watch || !job.Ratio || job.Post != nil {
		t.Errorf("options not applied: Xi=%v watch=%v ratio=%v post=%v",
			job.Xi, job.Watch, job.Ratio, job.Post != nil)
	}
}

func TestGridExpansionOrderAndKeys(t *testing.T) {
	s := testSource("grid-test")
	base, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Grid(base,
		[]runner.Axis{
			{Param: "n", Values: []string{"2", "3"}},
			{Param: "steps", Values: []string{"1", "2"}},
		},
		runner.Seeds(0, 2), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Row-major: first axis outermost, seeds innermost.
	want := []string{
		"grid-test/n=2/steps=1/seed=0", "grid-test/n=2/steps=1/seed=1",
		"grid-test/n=2/steps=2/seed=0", "grid-test/n=2/steps=2/seed=1",
		"grid-test/n=3/steps=1/seed=0", "grid-test/n=3/steps=1/seed=1",
		"grid-test/n=3/steps=2/seed=0", "grid-test/n=3/steps=2/seed=1",
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i, job := range jobs {
		if job.Key != want[i] {
			t.Errorf("job %d: key %q, want %q", i, job.Key, want[i])
		}
		if job.Cfg == nil {
			t.Fatalf("job %d has no config", i)
		}
	}
	// The axis values really reached the configs: n of the last job is 3.
	if jobs[len(jobs)-1].Cfg.N != 3 {
		t.Errorf("axis value not applied: N=%d", jobs[len(jobs)-1].Cfg.N)
	}

	if _, err := s.Grid(base, []runner.Axis{{Param: "ghost", Values: []string{"1"}}}, nil, JobOptions{}); err == nil {
		t.Error("grid accepted an undeclared axis")
	}
	if _, err := s.Grid(base, []runner.Axis{{Param: "n", Values: []string{"bad"}}}, nil, JobOptions{}); err == nil {
		t.Error("grid accepted a malformed axis value")
	}
}

// TestXiAtOrBelowOneRejected pins that a declared xi <= 1 fails job build,
// through both Jobs and a Grid axis, instead of reading as "no Ξ" and
// running without the admissibility check.
func TestXiAtOrBelowOneRejected(t *testing.T) {
	s := testSource("xi-test")
	for _, xi := range []string{"1", "1/2", "0", "-1"} {
		v, err := s.Resolve(map[string]string{"xi": xi})
		if err != nil {
			t.Fatal(err)
		}
		want := "xi-test: xi=" + xi + ":"
		if _, err := s.Jobs(v, nil, JobOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Jobs with xi=%s: %v, want an error containing %q", xi, err, want)
		}
		base, _ := s.Resolve(nil)
		if _, err := s.Grid(base, []runner.Axis{{Param: "xi", Values: []string{"2", xi}}}, nil, JobOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Grid with xi=2,%s: %v, want an error containing %q", xi, err, want)
		}
	}
}

// TestBroadcastSourceRuns drives the built-in broadcast source end to end
// through the fleet: defaults resolve, jobs run, the ABC verdict lands.
func TestBroadcastSourceRuns(t *testing.T) {
	s, found := Lookup("broadcast")
	if !found {
		t.Fatal("broadcast source not registered")
	}
	v, err := s.Resolve(map[string]string{"n": "3", "target": "3"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs(v, runner.Seeds(1, 2), JobOptions{Ratio: true})
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errored != 0 {
		t.Fatalf("errored jobs: %+v", results)
	}
	for _, r := range results {
		if r.Verdict == nil {
			t.Fatalf("%s: no verdict (Xi not decorated?)", r.Key)
		}
		if !r.Admissible() {
			t.Errorf("%s: broadcast defaults (Θ(3/2) delays) must be ABC(2)-admissible", r.Key)
		}
		if !strings.HasPrefix(r.Key, "broadcast/seed=") {
			t.Errorf("unexpected key %q", r.Key)
		}
	}
}
