// Package workload is the unified scenario pipeline: a registry of named,
// self-describing workload sources spanning every application domain of
// the ABC paper — Byzantine clock synchronization (Alg. 1), lock-step
// rounds (Alg. 2), VLSI clock generation (§5.3), the ParSync and Θ-Model
// embeddings (§5.1–5.2), the Section 6 variants, and the paper's figure
// scenarios.
//
// A Source bundles the three things a scenario needs to ride the fleet:
// a declared parameter space (Params), a job generator mapping one
// parameter point and seed to a runner.Job, and an optional domain
// verdict running the scenario's theorem-level checks on the completed
// result. Everything above the domain layer is generic: Source.Grid
// expands parameter axes into job batches, the fleet executes them with
// deterministic per-seed replay, cmd/abcsim sweeps any registered
// workload from the command line, and the conformance suite (in
// workload/all) pins determinism, trace-hash stability, and verdict
// agreement with the batch checker for every registration at once.
//
// Domain packages register themselves from init; import
// repro/internal/workload/all to link every registration. Adding a new
// scenario is one Register call — roughly fifty lines including its
// parameter space and domain checks.
package workload

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Kind is the type of a workload parameter.
type Kind int

// Parameter kinds. Rational values use the exact rat syntax ("3/2").
const (
	Int Kind = iota
	Int64
	Rational
	String
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Int64:
		return "int64"
	case Rational:
		return "rational"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Param declares one tunable of a workload's parameter space.
type Param struct {
	Name string
	Kind Kind
	// Default is the value used when a sweep does not set the parameter,
	// rendered in the parameter's textual syntax. It must parse per Kind.
	Default string
	// Doc is a one-line description, printed by `abcsim -list`.
	Doc string
}

// checkValue validates a textual value against the parameter's kind.
// No kind accepts the empty value: every string parameter spells its
// default ("none", "full", ...) out, so "" could only be a second,
// differently keyed spelling of a value that already has a name.
func (p Param) checkValue(v string) error {
	var err error
	switch p.Kind {
	case Int:
		_, err = strconv.Atoi(v)
	case Int64:
		_, err = strconv.ParseInt(v, 10, 64)
	case Rational:
		_, err = rat.Parse(v)
	case String:
		if v == "" {
			err = errors.New("empty")
		}
	default:
		err = fmt.Errorf("unknown kind %v", p.Kind)
	}
	if err != nil {
		return fmt.Errorf("workload: param %s: %q is not a valid %v", p.Name, v, p.Kind)
	}
	return nil
}

// Values is a fully resolved assignment of a source's parameter space:
// every declared parameter has a validated textual value. Build one with
// Source.Resolve; the typed accessors cannot fail afterwards and panic on
// undeclared names or kind mismatches (programming errors, not runtime
// conditions).
type Values struct {
	source string
	params []Param
	vals   map[string]string
}

func (v Values) lookup(name string, kind Kind) string {
	for _, p := range v.params {
		if p.Name == name {
			if p.Kind != kind {
				panic(fmt.Sprintf("workload: %s param %s is %v, read as %v", v.source, name, p.Kind, kind))
			}
			return v.vals[name]
		}
	}
	panic(fmt.Sprintf("workload: %s has no param %s", v.source, name))
}

// Int returns an Int parameter.
func (v Values) Int(name string) int {
	n, _ := strconv.Atoi(v.lookup(name, Int))
	return n
}

// Int64 returns an Int64 parameter.
func (v Values) Int64(name string) int64 {
	n, _ := strconv.ParseInt(v.lookup(name, Int64), 10, 64)
	return n
}

// Rat returns a Rational parameter.
func (v Values) Rat(name string) rat.Rat {
	return rat.MustParse(v.lookup(name, Rational))
}

// String returns a String parameter.
func (v Values) String(name string) string {
	return v.lookup(name, String)
}

// Map returns a copy of the resolved assignment as plain name→value
// pairs in each parameter's textual syntax — for callers serializing a
// parameter point (e.g. JSON result records).
func (v Values) Map() map[string]string {
	m := make(map[string]string, len(v.vals))
	for k, val := range v.vals {
		m[k] = val
	}
	return m
}

// Has reports whether the source declares the named parameter.
func (v Values) Has(name string) bool {
	for _, p := range v.params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Set returns a copy of the values with one parameter overridden; it
// validates like Resolve.
func (v Values) Set(name, value string) (Values, error) {
	for _, p := range v.params {
		if p.Name != name {
			continue
		}
		if err := p.checkValue(value); err != nil {
			return Values{}, err
		}
		vals := make(map[string]string, len(v.vals))
		for k, val := range v.vals {
			vals[k] = val
		}
		vals[name] = value
		return Values{source: v.source, params: v.params, vals: vals}, nil
	}
	return Values{}, fmt.Errorf("workload: %s has no param %q", v.source, name)
}

// Source is one registered workload: a parameter space, a job generator,
// and a domain verdict.
type Source struct {
	// Name is the registry key (e.g. "clocksync").
	Name string
	// Doc is a one-line description of the scenario.
	Doc string
	// Params declares the parameter space. Names must be unique and
	// defaults must parse.
	Params []Param
	// Job builds the fleet job for one parameter point and seed. The
	// returned job may preset Xi/Ratio/Watch (trace scenarios preset their
	// figure's Ξ, simulation scenarios usually leave Xi to the sweep
	// decoration); Key may be left empty for the sweep to fill.
	Job func(v Values, seed int64) (runner.Job, error)
	// Verdict, when non-nil, runs the workload's domain-level checks —
	// theorem monitors, protocol invariants, model comparisons — on the
	// completed job result. It is wired into runner.Job.Post by Jobs, so
	// failures land in JobResult.CheckErr and runner.Stats.CheckFailed.
	Verdict func(v Values, r *runner.JobResult) error
	// VerdictNeedsTrace declares that Verdict reads the recorded events,
	// messages, or execution graph, so it cannot run under bounded trace
	// retention. Resolve rejects trace=window/K and trace=none for such
	// sources. Verdicts that inspect only fault flags and final process
	// states leave it false and keep working in every retention mode.
	VerdictNeedsTrace bool
}

// Resolve validates overrides against the parameter space and fills
// defaults, returning the complete assignment. Unknown names and values
// that do not parse per their declared kind are errors.
func (s Source) Resolve(overrides map[string]string) (Values, error) {
	vals := make(map[string]string, len(s.Params))
	for _, p := range s.Params {
		vals[p.Name] = p.Default
	}
	for name, value := range overrides {
		found := false
		for _, p := range s.Params {
			if p.Name != name {
				continue
			}
			if err := p.checkValue(value); err != nil {
				return Values{}, err
			}
			vals[name] = value
			found = true
			break
		}
		if !found {
			return Values{}, fmt.Errorf("workload: %s has no param %q (have %v)", s.Name, name, s.paramNames())
		}
	}
	v := Values{source: s.Name, params: s.Params, vals: vals}
	if v.Has("trace") {
		_, ret, err := ResolveRetention(v)
		if err != nil {
			return Values{}, err
		}
		if ret.Mode != sim.RetainFullMode && s.VerdictNeedsTrace {
			return Values{}, fmt.Errorf("workload: %s: its domain verdict reads the recorded trace, which trace=%s discards; use trace=full",
				s.Name, v.String("trace"))
		}
	}
	return v, nil
}

func (s Source) paramNames() []string {
	names := make([]string, len(s.Params))
	for i, p := range s.Params {
		names[i] = p.Name
	}
	return names
}

// JobOptions decorates generated jobs for one sweep.
type JobOptions struct {
	// Xi overrides the admissibility-check parameter: when positive it is
	// stamped on every job, replacing both the source's preset and the
	// "xi" parameter. Zero keeps the source's choice (the job's preset Xi
	// if any, else the resolved "xi" parameter if declared).
	Xi rat.Rat
	// Watch streams the ABC check through the incremental engine while
	// each simulation runs (runner.Job.Watch); requires an effective Ξ and
	// simulation (Cfg) jobs.
	Watch bool
	// Ratio requests the exact critical-ratio search on every job.
	Ratio bool
	// NoVerdict suppresses the source's domain verdict (Job.Post stays
	// nil). Callers that recompute the domain checks themselves — e.g.
	// experiments reporting each theorem individually — use it to avoid
	// paying for the checks twice.
	NoVerdict bool
}

// decorate applies sweep options, the trace-retention sink, and the
// domain verdict to one job. Bounded retention restricts the decoration:
// watching (the incremental checker) works on a window but not on
// trace=none, and the batch Xi / critical-ratio analyses — which replay
// the complete trace — are silently skipped rather than handed a trace
// that cannot support them.
func (s Source) decorate(job runner.Job, v Values, opt JobOptions) (runner.Job, error) {
	ret := sim.Retention{Mode: sim.RetainFullMode}
	if job.Cfg != nil {
		sink, r, err := ResolveRetention(v)
		if err != nil {
			return runner.Job{}, err
		}
		if sink != nil && r.Mode != sim.RetainFullMode {
			ret = r
			cfg := *job.Cfg
			cfg.Sink = sink
			job.Cfg = &cfg
		}
	}
	if opt.Xi.Sign() > 0 {
		job.Xi = opt.Xi
	} else if job.Xi.Sign() <= 0 && v.Has("xi") {
		job.Xi = v.Rat("xi")
	}
	if opt.Watch {
		job.Watch = true
	}
	if opt.Ratio {
		job.Ratio = true
	}
	switch ret.Mode {
	case sim.RetainNoneMode:
		if job.Watch {
			return runner.Job{}, fmt.Errorf("workload: %s: watching requires retained events; use trace=full or trace=window/K", s.Name)
		}
		job.Xi, job.Ratio = rat.Rat{}, false
	case sim.RetainWindowMode:
		if !job.Watch {
			// Batch analyses need the complete trace; only the incremental
			// watcher can check admissibility over a sliding window.
			job.Xi, job.Ratio = rat.Rat{}, false
		}
	}
	if s.Verdict != nil && job.Post == nil && !opt.NoVerdict {
		verdict, vals := s.Verdict, v
		job.Post = func(r *runner.JobResult) error { return verdict(vals, r) }
	}
	return job, nil
}

// checkXi rejects a declared xi parameter at or below 1, or one whose
// numerator or denominator overflows int64. The ABC model needs Ξ > 1,
// and decorate reads a non-positive Ξ as "no admissibility check", so such
// a value would otherwise run unchecked instead of failing; the checkers
// weigh constraints in int64, so an oversized Ξ could only fail mid-run.
func (s Source) checkXi(v Values) error {
	if !v.Has("xi") {
		return nil
	}
	xi := v.Rat("xi")
	if !xi.Greater(rat.One) {
		return fmt.Errorf("workload: %s: xi=%v: Ξ must be a rational > 1", s.Name, xi)
	}
	if _, _, ok := xi.Inline(); !ok {
		return fmt.Errorf("workload: %s: xi=%v: Ξ numerator and denominator must fit in int64", s.Name, xi)
	}
	return nil
}

// Axis is one named dimension of a Grid sweep.
type Axis struct {
	// Param is the declared parameter the axis varies.
	Param string
	// Values are the distinct settings to sweep, in sweep order.
	Values []string
}

// Point is the parameter point and seed one Grid job was built from.
type Point struct {
	Values Values
	Seed   int64
}

// Jobs expands one parameter point across seeds into decorated fleet jobs:
// Grid with no axes, keys "name/seed=N".
func (s Source) Jobs(v Values, seeds []int64, opt JobOptions) ([]runner.Job, error) {
	jobs, _, err := s.Grid(v, nil, seeds, opt)
	return jobs, err
}

// Grid expands a parameter sweep into decorated fleet jobs — Xi, Watch and
// Ratio per opt, the domain verdict wired into Job.Post — and returns the
// point each job was built from. Each axis varies one declared parameter
// over distinct values that parse; base supplies every other value. Cells
// expand row-major, the first axis outermost and seeds innermost, so job
// order is a pure function of the sweep. Keys are
// "name/param=value/.../seed=N" with one segment per multi-valued axis; an
// empty seed list means seed 0.
func (s Source) Grid(base Values, axes []Axis, seeds []int64, opt JobOptions) ([]runner.Job, []Point, error) {
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	// A cell is one point of the sweep, grown one axis at a time: its
	// values, its key prefix, and the name its job errors carry.
	type cell struct {
		v          Values
		key, label string
	}
	cells := []cell{{base, s.Name, s.Name}}
	for i, ax := range axes {
		if !base.Has(ax.Param) {
			return nil, nil, fmt.Errorf("workload: %s has no param %q", s.Name, ax.Param)
		}
		if len(ax.Values) == 0 {
			return nil, nil, fmt.Errorf("workload: %s sweeps %q over no values", s.Name, ax.Param)
		}
		for _, prior := range axes[:i] {
			if prior.Param == ax.Param {
				// The later axis would win while the keys name both values.
				return nil, nil, fmt.Errorf("workload: %s sweeps %q twice", s.Name, ax.Param)
			}
		}
		seen := make(map[string]bool, len(ax.Values))
		for _, val := range ax.Values {
			if seen[val] {
				// Two cells would run the same jobs under the same keys.
				return nil, nil, fmt.Errorf("workload: %s sweeps %s=%s twice", s.Name, ax.Param, val)
			}
			seen[val] = true
		}
		next := make([]cell, 0, len(cells)*len(ax.Values))
		for _, c := range cells {
			for _, val := range ax.Values {
				v, err := c.v.Set(ax.Param, val)
				if err != nil {
					return nil, nil, fmt.Errorf("workload: %s: %w", s.Name, err)
				}
				key := c.key
				if len(ax.Values) > 1 {
					key += "/" + ax.Param + "=" + val
				}
				next = append(next, cell{v, key, c.label + " " + ax.Param + "=" + val})
			}
		}
		cells = next
	}

	// Job errors name the cell and the seed. A plain batch's only cell is
	// base, whose Ξ and retention errors name the offending value already.
	sweepErr := func(c cell, seed int64, err error) error {
		if len(axes) == 0 {
			return err
		}
		return fmt.Errorf("workload: %s seed=%d: %w", c.label, seed, err)
	}
	jobs := make([]runner.Job, 0, len(cells)*len(seeds))
	points := make([]Point, 0, len(cells)*len(seeds))
	for _, c := range cells {
		if err := s.checkXi(c.v); err != nil {
			return nil, nil, sweepErr(c, seeds[0], err)
		}
		for _, seed := range seeds {
			job, err := s.Job(c.v, seed)
			if err != nil {
				return nil, nil, fmt.Errorf("workload: %s seed=%d: %w", c.label, seed, err)
			}
			if job, err = s.decorate(job, c.v, opt); err != nil {
				return nil, nil, sweepErr(c, seed, err)
			}
			if job.Key == "" {
				job.Key = fmt.Sprintf("%s/seed=%d", c.key, seed)
			}
			jobs = append(jobs, job)
			points = append(points, Point{Values: c.v, Seed: seed})
		}
	}
	return jobs, points, nil
}

// registry is the process-wide source table, written from package inits.
var registry = struct {
	sync.RWMutex
	sources map[string]Source
}{sources: make(map[string]Source)}

// Register adds a source to the registry. It panics on duplicate names,
// empty names, missing job generators, duplicate parameter names, or
// defaults that do not parse — registration happens at init time, where a
// bad source is a programming error.
func Register(s Source) {
	if s.Name == "" {
		panic("workload: Register with empty name")
	}
	if s.Job == nil {
		panic(fmt.Sprintf("workload: source %s has no job generator", s.Name))
	}
	seen := make(map[string]bool, len(s.Params))
	for _, p := range s.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("workload: source %s: empty or duplicate param %q", s.Name, p.Name))
		}
		seen[p.Name] = true
		if err := p.checkValue(p.Default); err != nil {
			panic(fmt.Sprintf("workload: source %s: bad default: %v", s.Name, err))
		}
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.sources[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate source %q", s.Name))
	}
	registry.sources[s.Name] = s
}

// Lookup returns the named source.
func Lookup(name string) (Source, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.sources[name]
	return s, ok
}

// Names returns the registered workload names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.sources))
	for name := range registry.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
