package vlsi

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

func TestNewChipValidation(t *testing.T) {
	if _, err := NewChip(0, rat.One, rat.FromInt(2)); err == nil {
		t.Error("zero modules accepted")
	}
	if _, err := NewChip(4, rat.FromInt(2), rat.One); err == nil {
		t.Error("inverted range accepted")
	}
	c, err := NewChip(4, rat.One, rat.New(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Modules() != 4 {
		t.Errorf("Modules = %d", c.Modules())
	}
	if err := c.SetWire(0, 1, rat.FromInt(2), rat.One); err == nil {
		t.Error("inverted wire range accepted")
	}
}

func TestWireLookup(t *testing.T) {
	c, _ := NewChip(3, rat.One, rat.FromInt(2))
	if err := c.SetWire(0, 1, rat.FromInt(3), rat.FromInt(4)); err != nil {
		t.Fatal(err)
	}
	if w := c.Wire(0, 1); !w.Min.Equal(rat.FromInt(3)) || !w.Max.Equal(rat.FromInt(4)) {
		t.Errorf("explicit wire = %+v", w)
	}
	if w := c.Wire(1, 0); !w.Min.Equal(rat.One) {
		t.Errorf("default wire = %+v", w)
	}
}

func TestMigratePreservesRatios(t *testing.T) {
	c, _ := NewChip(3, rat.One, rat.New(3, 2))
	_ = c.SetWire(0, 1, rat.FromInt(2), rat.FromInt(3))
	half, err := c.Migrate(rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	w := half.Wire(0, 1)
	if !w.Min.Equal(rat.One) || !w.Max.Equal(rat.New(3, 2)) {
		t.Errorf("migrated wire = %+v", w)
	}
	d := half.Wire(2, 1) // default scaled too
	if !d.Min.Equal(rat.New(1, 2)) {
		t.Errorf("migrated default = %+v", d)
	}
	if _, err := c.Migrate(rat.Zero); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestClockGenerationFaultFree(t *testing.T) {
	xi := rat.FromInt(2)
	c, _ := NewChip(4, rat.One, rat.New(3, 2))
	rep, err := RunClockGeneration(c, xi, 1, 10, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Admissible {
		t.Error("chip execution not admissible")
	}
	if !rep.PrecisionOK {
		t.Error("precision bound violated")
	}
	if rep.MaxTick < 10 {
		t.Errorf("max tick %d < 10", rep.MaxTick)
	}
	if rep.CriticalRatio.GreaterEq(xi) {
		t.Errorf("critical ratio %v >= Ξ", rep.CriticalRatio)
	}
}

func TestClockGenerationWithByzantineModule(t *testing.T) {
	xi := rat.FromInt(2)
	c, _ := NewChip(4, rat.One, rat.New(3, 2))
	faults := map[sim.ProcessID]sim.Fault{3: sim.Silent()}
	rep, err := RunClockGeneration(c, xi, 1, 8, faults, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Admissible || !rep.PrecisionOK {
		t.Errorf("report %+v", rep)
	}
}

// Technology migration: the same design at half delays yields the same
// admissibility and precision — Ξ carries over unchanged.
func TestMigrationKeepsXiValid(t *testing.T) {
	xi := rat.FromInt(2)
	c, _ := NewChip(4, rat.One, rat.New(3, 2))
	before, err := RunClockGeneration(c, xi, 1, 8, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	faster, err := c.Migrate(rat.New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	after, err := RunClockGeneration(faster, xi, 1, 8, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !before.Admissible || !after.Admissible {
		t.Error("admissibility lost in migration")
	}
	if !before.PrecisionOK || !after.PrecisionOK {
		t.Error("precision lost in migration")
	}
	// Same seed, uniformly scaled delays: identical logical executions,
	// hence identical critical ratios.
	if !before.CriticalRatio.Equal(after.CriticalRatio) {
		t.Errorf("critical ratio changed: %v -> %v", before.CriticalRatio, after.CriticalRatio)
	}
}

// Fig. 9: grossly mismatched individual wires — ratio far above Ξ link-by-
// link — remain admissible because only cumulative cycle ratios matter.
func TestFig9CumulativeDelays(t *testing.T) {
	// q=0 exchanges directly with p=1 (1-hop, delay ~5) and indirectly
	// with s=3 via r=2 (2-hop path with one slow and one fast wire).
	b := sim.NewTraceBuilder(4)
	b.WakeAll(rat.Zero)
	// Round trip q -> p -> q: delays 5 and 5.
	b.MsgAt(0, 0, 1, 5, "qp")
	b.MsgAt(1, 1, 0, 10, "pq")
	// Path q -> r -> s -> r -> q: wire q-r is very slow (9), r-s very
	// fast (1/2): individually mismatched by a factor 18.
	b.MsgAt(0, 0, 2, 9, "qr")
	b.Msg(2, 1, 3, rat.New(19, 2), "rs")
	b.MsgAt(3, 1, 2, 10, "sr")
	b.MsgAt(2, 2, 0, 19, "rq") // q event 2, after the p round trip
	tr := b.MustBuild()
	g := causality.Build(tr, causality.Options{})

	// Per-wire ratio 18 >> Ξ = 3, yet the execution is admissible: the
	// 4-hop path (sum 19) is spanned by... the cycle q->r->s->r->q vs two
	// q<->p round trips would need those roundtrips; here the only
	// relevant constraint is cumulative.
	v, err := check.ABC(g, rat.FromInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatalf("Fig.9 execution not admissible at Ξ=3: witness %v", v.Witness)
	}
}
