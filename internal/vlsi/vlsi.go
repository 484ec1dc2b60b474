// Package vlsi models the paper's VLSI Systems-on-Chip application domain
// (Section 5.3): a chip is a set of functional modules connected by wires
// whose min/max propagation delays are fixed by place-and-route. Running
// the Byzantine tick generation of Algorithm 1 over such a chip is the
// DARTS-style fault-tolerant clock generation the paper cites (which was
// migrated from an FPGA to an ASIC without change — the re-use argument
// reproduced by the Migrate experiment here).
//
// Two of the paper's points are directly expressible:
//
//   - Technology migration: scaling all wire delays by a common factor
//     (a faster process node) preserves every cycle's delay ratios, so the
//     algorithm's Ξ continues to hold without re-validation.
//   - Cumulative, per-cycle constraints (Fig. 9): individual wires may be
//     arbitrarily mismatched (ratio far above Ξ) as long as the cumulative
//     delays along relevant cycles stay within Ξ — far weaker than the
//     per-link constraints a ParSync or Θ design flow would impose.
package vlsi

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/clocksync"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Wire is a directed link with place-and-route delay bounds.
type Wire struct {
	Min, Max rat.Rat
}

// Chip is a placed-and-routed system of modules. The zero value is not
// usable; create with NewChip.
type Chip struct {
	n     int
	wires map[sim.Link]Wire
	// Default applies to links without an explicit wire.
	def Wire
}

// NewChip returns a chip with n modules and a default wire delay range.
func NewChip(n int, defaultMin, defaultMax rat.Rat) (*Chip, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vlsi: chip needs modules, got %d", n)
	}
	if defaultMin.Sign() < 0 || defaultMax.Less(defaultMin) {
		return nil, fmt.Errorf("vlsi: bad default delay range [%v, %v]", defaultMin, defaultMax)
	}
	return &Chip{
		n:     n,
		wires: make(map[sim.Link]Wire),
		def:   Wire{Min: defaultMin, Max: defaultMax},
	}, nil
}

// Modules returns the module count.
func (c *Chip) Modules() int { return c.n }

// SetWire fixes the delay range of one directed link.
func (c *Chip) SetWire(from, to sim.ProcessID, min, max rat.Rat) error {
	if min.Sign() < 0 || max.Less(min) {
		return fmt.Errorf("vlsi: bad delay range [%v, %v]", min, max)
	}
	c.wires[sim.Link{From: from, To: to}] = Wire{Min: min, Max: max}
	return nil
}

// Wire returns the delay range of a link.
func (c *Chip) Wire(from, to sim.ProcessID) Wire {
	if w, ok := c.wires[sim.Link{From: from, To: to}]; ok {
		return w
	}
	return c.def
}

// Migrate returns a copy of the chip with every wire delay scaled by the
// given positive factor — the technology-migration scenario. Scaling all
// paths uniformly preserves all delay ratios, hence the Ξ of any ABC
// algorithm running on the chip.
func (c *Chip) Migrate(factor rat.Rat) (*Chip, error) {
	if factor.Sign() <= 0 {
		return nil, fmt.Errorf("vlsi: scale factor %v must be positive", factor)
	}
	out := &Chip{
		n:     c.n,
		wires: make(map[sim.Link]Wire, len(c.wires)),
		def:   Wire{Min: c.def.Min.Mul(factor), Max: c.def.Max.Mul(factor)},
	}
	for l, w := range c.wires {
		out.wires[l] = Wire{Min: w.Min.Mul(factor), Max: w.Max.Mul(factor)}
	}
	return out, nil
}

// DelayPolicy returns the simulation delay policy induced by the chip's
// wires: per-link uniform within [Min, Max].
func (c *Chip) DelayPolicy() sim.DelayPolicy {
	links := make(map[sim.Link]sim.DelayPolicy, len(c.wires))
	for l, w := range c.wires {
		links[l] = sim.UniformDelay{Min: w.Min, Max: w.Max}
	}
	return sim.PerLinkDelay{
		Default: sim.UniformDelay{Min: c.def.Min, Max: c.def.Max},
		Links:   links,
	}
}

// ClockGenReport summarizes a clock generation run.
type ClockGenReport struct {
	// Admissible is the ABC verdict of the produced execution.
	Admissible bool
	// CriticalRatio is the execution's exact worst relevant-cycle ratio
	// (zero if unconstrained).
	CriticalRatio rat.Rat
	// MaxTick is the highest clock value reached by a correct module.
	MaxTick int
	// PrecisionOK reports Theorem 3's bound ⌈2Ξ⌉ held at all times.
	PrecisionOK bool
	Events      int
}

// RunClockGeneration runs DARTS-style tick generation (Algorithm 1) on the
// chip for a model with parameter Ξ, tolerating f Byzantine modules, until
// every correct module reaches targetTick.
func RunClockGeneration(c *Chip, xi rat.Rat, f, targetTick int, faults map[sim.ProcessID]sim.Fault, seed int64) (ClockGenReport, error) {
	res, err := sim.Run(sim.Config{
		N:         c.n,
		Spawn:     clocksync.Spawner(c.n, f),
		Faults:    faults,
		Delays:    c.DelayPolicy(),
		Seed:      seed,
		Until:     clocksync.AllReached(targetTick, faults),
		MaxEvents: 400000,
	})
	if err != nil {
		return ClockGenReport{}, err
	}
	if res.Truncated {
		return ClockGenReport{}, fmt.Errorf("vlsi: clock generation truncated before tick %d", targetTick)
	}
	p, err := check.NewProber(causality.Build(res.Trace, causality.Options{}))
	if err != nil {
		return ClockGenReport{}, err
	}
	v, err := p.ABC(xi)
	if err != nil {
		return ClockGenReport{}, err
	}
	ratio, found, err := p.MaxRelevantRatio()
	if err != nil {
		return ClockGenReport{}, err
	}
	if !found {
		ratio = rat.Zero
	}
	x := xi.MulInt(2).Ceil()
	precisionErr := clocksync.CheckRealTimePrecision(res.Trace, x)
	maxTick := 0
	for id, pr := range res.Procs {
		if _, bad := faults[sim.ProcessID(id)]; bad {
			continue
		}
		if cs, ok := pr.(*clocksync.Proc); ok && cs.Clock() > maxTick {
			maxTick = cs.Clock()
		}
	}
	return ClockGenReport{
		Admissible:    v.Admissible,
		CriticalRatio: ratio,
		MaxTick:       maxTick,
		PrecisionOK:   precisionErr == nil,
		Events:        len(res.Trace.Events),
	}, nil
}
