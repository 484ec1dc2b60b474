package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: the workload
// names, the metrics it prints with their units and regression bounds,
// and the default run length. The file is the single source of bounds;
// the Go side only knows how to compute each named metric.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec declares one reported metric. Bound is set for end-to-end
// metrics only: the share of the base median by which the metric may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root and checks that
// every metric it names is one the benchmark computes, in the same unit,
// and that its workloads are exactly the defined ones.
func loadSpec(root string, defs []workloadDef) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) != len(defs) {
		return s, fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(s.Workloads), len(defs))
	}
	for i, w := range s.Workloads {
		if w.Name != defs[i].name {
			return s, fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark defines %q", i, w.Name, defs[i].name)
		}
	}
	check := func(kind string, ms []metricSpec, units map[string]string) error {
		for _, m := range ms {
			if unit, ok := units[m.Name]; !ok || unit != m.Unit {
				return fmt.Errorf("BENCHMARK.json %s metric %s [%s]: not computed in that unit", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("BENCHMARK.json metric %s: better must be lower or higher", m.Name)
			}
		}
		return nil
	}
	if err := check("end-to-end", s.EndToEnd, e2eUnits); err != nil {
		return s, err
	}
	return s, check("per-layer", s.PerLayer, layerUnits)
}

// invocation is one abcsim command line of a workload sample.
type invocation struct {
	Source string   `json:"source"`
	Params []string `json:"params,omitempty"` // name=value, passed as -param
	Runs   int      `json:"runs"`
	Watch  bool     `json:"watch,omitempty"`
}

// args renders the invocation as abcsim arguments for one seed.
func (inv invocation) args(seed int64) []string {
	a := []string{"-workload", inv.Source, "-json", "-seed", strconv.FormatInt(seed, 10), "-runs", strconv.Itoa(inv.Runs)}
	for _, p := range inv.Params {
		a = append(a, "-param", p)
	}
	if inv.Watch {
		a = append(a, "-watch")
	}
	return a
}

// overrides returns the invocation's parameters as workload.Source.Resolve
// takes them.
func (inv invocation) overrides() map[string]string {
	m := make(map[string]string, len(inv.Params))
	for _, p := range inv.Params {
		k, v, _ := strings.Cut(p, "=")
		m[k] = v
	}
	return m
}

// workloadDef is one benchmark workload: the abcsim invocations one sample
// runs, in order, and the stream digest its jobs must fold to at seed 1
// ("" leaves it unpinned).
type workloadDef struct {
	name   string
	invs   []invocation
	pinned string
	note   string // printed beside the workload's layer table
}

// The four workloads. Together they cover the engine in all three
// retention modes (none, window with the incremental Monitor, full), both
// delivery-queue kinds (calendar at N >= 4096, heap below), both sides of
// abcsim's automatic shard selection (ring is its only multi-shard run),
// the incremental checker on a shallow-sparse and a deep-dense graph, and
// the critical-ratio search on one large graph and on thousands of small
// ones. ring and watch-ring simulate the same execution (equal digests),
// so they differ only in retention, the Monitor and the engine mode.
// Sizes keep every sample near or under 1.5 s and every process under
// ~0.5 GB: on a shared 2-CPU host, bigger processes were far noisier
// (2×10^5 ring: 1.3 GB, run-to-run spread up to 28%), and short samples
// let a run of 20 s take a median over 15 or more.
var workloadDefs = []workloadDef{
	{
		name: "ring",
		invs: []invocation{{Source: "broadcast", Runs: 1, Params: []string{
			"n=50000", "topology=ring", "target=3", "trace=none", "maxevents=16777216"}}},
		pinned: "0a945bbe2dd1274f",
		note:   "the traced pass runs the serial engine, the untraced samples abcsim's automatic shard count, so trace.overhead_frac also contains serial-vs-sharded",
	},
	{
		name: "watch-ring",
		invs: []invocation{{Source: "broadcast", Runs: 1, Watch: true, Params: []string{
			"n=50000", "topology=ring", "target=3", "trace=window/4096", "maxevents=16777216"}}},
		pinned: "0a945bbe2dd1274f",
	},
	{
		name: "watch-dense",
		invs: []invocation{{Source: "broadcast", Runs: 1, Watch: true, Params: []string{
			"n=64", "target=20", "trace=window/4096", "maxevents=16777216"}}},
		pinned: "d8f770183b947681",
	},
	{
		name:   "catalogue",
		invs:   catalogue(200, 20),
		pinned: "4d0394eed0c88720",
	},
}

// catalogue is one invocation per registered source at its defaults.
// variants runs fewer seeds: its ratio search dominates otherwise.
func catalogue(runs, variantRuns int) []invocation {
	var invs []invocation
	for _, src := range []string{"broadcast", "clocksync", "consensus", "lockstep", "omega", "parsync", "scenario", "theta", "variants", "vlsi"} {
		r := runs
		if src == "variants" {
			r = variantRuns
		}
		invs = append(invs, invocation{Source: src, Runs: r})
	}
	return invs
}

// jobs is the number of jobs one sample runs.
func (d workloadDef) jobs() int {
	n := 0
	for _, inv := range d.invs {
		n += inv.Runs
	}
	return n
}

func findWorkload(defs []workloadDef, name string) (workloadDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
