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
			{Name: "label", Kind: String, Default: "none", Doc: "free-form tag"},
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
	if v.String("label") != "none" || v.Int("strict") != 0 || v.Int64("budget") != 0 {
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
	// No kind takes the empty value, through Resolve or Set.
	for _, name := range []string{"n", "xi", "label", "budget"} {
		if _, err := s.Resolve(map[string]string{name: ""}); err == nil {
			t.Errorf("Resolve accepted %s=", name)
		}
		if _, err := v.Set(name, ""); err == nil {
			t.Errorf("Set accepted %s=", name)
		}
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

// TestGridExpansionOrderAndKeys pins the sweep order (row-major, first axis
// outermost, seeds innermost), the key format (one name=value segment per
// axis, the seed always) and the point each job was built from.
func TestGridExpansionOrderAndKeys(t *testing.T) {
	s := testSource("grid-test")
	base, err := s.Resolve(map[string]string{"budget": "7"})
	if err != nil {
		t.Fatal(err)
	}
	jobs, points, err := s.Grid(base,
		[]Axis{
			{Param: "n", Values: []string{"2", "3"}},
			{Param: "steps", Values: []string{"1", "2"}},
		},
		runner.Seeds(5, 2), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grid-test/n=2/steps=1/seed=5", "grid-test/n=2/steps=1/seed=6",
		"grid-test/n=2/steps=2/seed=5", "grid-test/n=2/steps=2/seed=6",
		"grid-test/n=3/steps=1/seed=5", "grid-test/n=3/steps=1/seed=6",
		"grid-test/n=3/steps=2/seed=5", "grid-test/n=3/steps=2/seed=6",
	}
	if len(jobs) != len(want) || len(points) != len(want) {
		t.Fatalf("got %d jobs and %d points, want %d", len(jobs), len(points), len(want))
	}
	for i, job := range jobs {
		if job.Key != want[i] {
			t.Errorf("job %d: key %q, want %q", i, job.Key, want[i])
		}
		if job.Cfg == nil {
			t.Fatalf("job %d has no config", i)
		}
		// The point is the cell's values over base, and the job's seed.
		p := points[i]
		if p.Values.Int64("budget") != 7 {
			t.Errorf("job %d: budget=%d, want base's 7", i, p.Values.Int64("budget"))
		}
		if key := fmt.Sprintf("grid-test/n=%d/steps=%d/seed=%d", p.Values.Int("n"), p.Values.Int("steps"), p.Seed); key != want[i] {
			t.Errorf("job %d: point %s, want %s", i, key, want[i])
		}
		if job.Cfg.N != p.Values.Int("n") || job.Cfg.Seed != p.Seed {
			t.Errorf("job %d: config n=%d seed=%d, point n=%d seed=%d", i, job.Cfg.N, job.Cfg.Seed, p.Values.Int("n"), p.Seed)
		}
	}
}

// TestGridSingleValuedAxes pins that a single-valued axis still sets its
// value in every cell but adds no key segment: keys name only the axes
// that vary, and the seed always.
func TestGridSingleValuedAxes(t *testing.T) {
	s := testSource("pg")
	base, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs, points, err := s.Grid(base,
		[]Axis{
			{Param: "n", Values: []string{"2", "3"}},
			{Param: "label", Values: []string{"x"}},
		},
		[]int64{7, 8}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := []string{
		"n=2 label=x seed=7", "n=2 label=x seed=8",
		"n=3 label=x seed=7", "n=3 label=x seed=8",
	}
	wantKeys := []string{
		"pg/n=2/seed=7", "pg/n=2/seed=8",
		"pg/n=3/seed=7", "pg/n=3/seed=8",
	}
	if len(jobs) != len(wantKeys) || len(points) != len(wantCells) {
		t.Fatalf("got %d jobs and %d points, want %d", len(jobs), len(points), len(wantCells))
	}
	for i, p := range points {
		cell := fmt.Sprintf("n=%d label=%s seed=%d", p.Values.Int("n"), p.Values.String("label"), p.Seed)
		if cell != wantCells[i] {
			t.Errorf("cell %d: %q, want %q", i, cell, wantCells[i])
		}
		if jobs[i].Key != wantKeys[i] {
			t.Errorf("job %d: key %q, want %q", i, jobs[i].Key, wantKeys[i])
		}
	}
}

// TestGridKeyNoCollisions pins the name=value segment format of Grid keys.
// A bare-value join would make distinct cells collide once axis values
// contain "/" — exactly what topology specs like "torus/4x4" do — because
// a slash inside a value would be indistinguishable from a segment
// separator.
func TestGridKeyNoCollisions(t *testing.T) {
	s := Source{
		Name: "g",
		Params: []Param{
			{Name: "delay", Kind: String},
			{Name: "fault", Kind: String},
			{Name: "topology", Kind: String},
		},
		Job: func(Values, int64) (runner.Job, error) { return runner.Job{}, nil },
	}
	base, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := s.Grid(base, []Axis{
		{Param: "delay", Values: []string{"a/b", "a"}},
		{Param: "fault", Values: []string{"c", "b", "torus"}},
		{Param: "topology", Values: []string{"c", "b", "torus/4x4", "4x4"}},
	}, []int64{1}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 24 {
		t.Fatalf("got %d jobs, want 24", len(jobs))
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.Key] {
			t.Errorf("key %q collides", j.Key)
		}
		seen[j.Key] = true
	}
	for _, want := range []string{
		// Both would be g/a/b/torus/4x4 joined bare.
		"g/delay=a/fault=b/topology=torus/4x4/seed=1",
		"g/delay=a/b/fault=torus/topology=4x4/seed=1",
	} {
		if !seen[want] {
			t.Errorf("no job keyed %q", want)
		}
	}
}

// TestGridDefaultsAndErrors pins the axis checks — every axis declared,
// not repeated, not empty, its values distinct and parsing — and the
// default seed 0 of an empty seed list.
func TestGridDefaultsAndErrors(t *testing.T) {
	s := testSource("grid-err")
	base, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs, points, err := s.Grid(base, nil, nil, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Key != "grid-err/seed=0" || points[0].Seed != 0 || jobs[0].Cfg.Seed != 0 {
		t.Errorf("axis-free grid without seeds = %d jobs (key %q), want one at seed 0", len(jobs), jobs[0].Key)
	}
	for _, tc := range []struct {
		name string
		axes []Axis
		want string
	}{
		{"undeclared", []Axis{{Param: "ghost", Values: []string{"1"}}}, `grid-err has no param "ghost"`},
		{"unnamed", []Axis{{Values: []string{"1"}}}, `grid-err has no param ""`},
		{"empty", []Axis{{Param: "n"}}, `grid-err sweeps "n" over no values`},
		{"repeated axis", []Axis{{Param: "n", Values: []string{"3"}}, {Param: "n", Values: []string{"4"}}}, `grid-err sweeps "n" twice`},
		{"repeated value", []Axis{{Param: "xi", Values: []string{"2", "3", "2"}}}, "grid-err sweeps xi=2 twice"},
		{"empty value", []Axis{{Param: "label", Values: []string{"a", ""}}}, `grid-err: workload: param label: "" is not a valid string`},
		{"malformed value", []Axis{{Param: "n", Values: []string{"3", "bad"}}}, `grid-err: workload: param n: "bad" is not a valid int`},
	} {
		if _, _, err := s.Grid(base, tc.axes, nil, JobOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// A job error names the workload, the cell and the seed.
	s.Job = func(v Values, seed int64) (runner.Job, error) {
		if v.Int("n") == 4 && seed == 8 {
			return runner.Job{}, fmt.Errorf("boom")
		}
		return runner.Job{}, nil
	}
	_, _, err = s.Grid(base, []Axis{{Param: "n", Values: []string{"3", "4"}}, {Param: "steps", Values: []string{"1"}}}, []int64{7, 8}, JobOptions{})
	if want := "workload: grid-err n=4 steps=1 seed=8: boom"; err == nil || err.Error() != want {
		t.Errorf("job error %v, want %q", err, want)
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
		if _, _, err := s.Grid(base, []Axis{{Param: "xi", Values: []string{"2", xi}}}, nil, JobOptions{}); err == nil || !strings.Contains(err.Error(), want) {
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
	results, stats, err := runner.Run(context.Background(), jobs, 2)
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
