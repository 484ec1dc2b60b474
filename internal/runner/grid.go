package runner

import "fmt"

// Axis is one named dimension of a ParamGrid sweep.
type Axis struct {
	// Param is the parameter name the axis varies.
	Param string
	// Values are the settings to sweep, in sweep order.
	Values []string
}

// ParamGrid is the generic workload sweep: named string-valued axes
// expanded row-major — the first axis outermost, the seed axis innermost —
// so job indices, and therefore the order of collected results, are a pure
// function of the grid, independent of worker count.
type ParamGrid struct {
	// Name prefixes every generated job key.
	Name string
	// Axes are the swept parameters; an axis with no values contributes a
	// single cell with the empty setting.
	Axes []Axis
	// Seeds is the innermost axis; empty means the single seed 0.
	Seeds []int64
	// Make builds the job for one cell from the axis assignment (one entry
	// per axis) and the seed. A returned job with an empty Key gets
	// "Name/param=value/.../seed=N" with one segment per multi-valued axis.
	Make func(params map[string]string, seed int64) (Job, error)
}

// Jobs expands the grid into a job batch.
func (g ParamGrid) Jobs() ([]Job, error) {
	if g.Make == nil {
		return nil, fmt.Errorf("runner: param grid %q has no Make", g.Name)
	}
	seen := make(map[string]bool, len(g.Axes))
	for _, ax := range g.Axes {
		if ax.Param == "" {
			return nil, fmt.Errorf("runner: param grid %q has an unnamed axis", g.Name)
		}
		if seen[ax.Param] {
			// A duplicate axis would silently let the later one win while
			// the job keys name both values — mislabeled sweeps.
			return nil, fmt.Errorf("runner: param grid %q sweeps %q twice", g.Name, ax.Param)
		}
		seen[ax.Param] = true
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	cells := 1
	for _, ax := range g.Axes {
		if n := len(ax.Values); n > 0 {
			cells *= n
		}
	}
	jobs := make([]Job, 0, cells*len(seeds))
	assign := make([]string, len(g.Axes))
	var expand func(axis int) error
	expand = func(axis int) error {
		if axis == len(g.Axes) {
			params := make(map[string]string, len(g.Axes))
			key := g.Name
			for i, ax := range g.Axes {
				params[ax.Param] = assign[i]
				if len(ax.Values) > 1 {
					key += fmt.Sprintf("/%s=%s", ax.Param, assign[i])
				}
			}
			for _, seed := range seeds {
				job, err := g.Make(params, seed)
				if err != nil {
					return fmt.Errorf("runner: param grid %q at %v seed=%d: %w", g.Name, params, seed, err)
				}
				if job.Key == "" {
					job.Key = fmt.Sprintf("%s/seed=%d", key, seed)
				}
				jobs = append(jobs, job)
			}
			return nil
		}
		values := g.Axes[axis].Values
		if len(values) == 0 {
			values = []string{""}
		}
		for _, v := range values {
			assign[axis] = v
			if err := expand(axis + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(0); err != nil {
		return nil, err
	}
	return jobs, nil
}

// Seeds returns the contiguous seed range [from, from+count).
func Seeds(from int64, count int) []int64 {
	out := make([]int64, count)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}
