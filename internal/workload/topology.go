package workload

import (
	"fmt"

	"repro/internal/sim"
)

// TopologyParams declares the shared communication-graph axis for
// simulation sources: a textual topology spec (sim.ParseTopology syntax)
// plus the seed for the randomized generators. Append them to a source's
// Params and resolve with ResolveTopology; the axis then sweeps like any
// other parameter (`abcsim -sweep topology=full,ring,torus`).
func TopologyParams() []Param {
	return []Param{
		{Name: "topology", Kind: String, Default: "full",
			Doc: "communication graph: full, ring, torus[/RxC], regular/D, scalefree/M, islands/K"},
		{Name: "toposeed", Kind: Int64, Default: "1",
			Doc: "seed for randomized topology generators (regular, scalefree)"},
	}
}

// ResolveTopology builds the communication graph for the resolved values;
// nil means fully connected. The topology seed is deliberately separate
// from the job seed so a sweep varies delays across seeds while holding
// the graph fixed.
func ResolveTopology(v Values, n int) (*sim.Links, error) {
	topo, err := sim.ParseTopology(v.String("topology"), n, v.Int64("toposeed"))
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return topo, nil
}
