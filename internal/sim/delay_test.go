package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

func TestConstantDelay(t *testing.T) {
	p := ConstantDelay{D: rat.New(3, 2)}
	if got := p.Delay(Message{}, nil); !got.Equal(rat.New(3, 2)) {
		t.Errorf("got %v", got)
	}
}

func TestUniformDelayRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := UniformDelay{Min: rat.One, Max: rat.FromInt(3)}
	for i := 0; i < 500; i++ {
		d := p.Delay(Message{}, rng)
		if d.Less(rat.One) || d.Greater(rat.FromInt(3)) {
			t.Fatalf("delay %v outside [1, 3]", d)
		}
	}
	// Degenerate range.
	p = UniformDelay{Min: rat.FromInt(2), Max: rat.FromInt(2)}
	if d := p.Delay(Message{}, rng); !d.Equal(rat.FromInt(2)) {
		t.Errorf("degenerate range returned %v", d)
	}
}

func TestGrowingDelayGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := GrowingDelay{Base: rat.One, Rate: rat.One, Spread: rat.One}
	early := p.Delay(Message{SendTime: rat.Zero}, rng)
	late := p.Delay(Message{SendTime: rat.FromInt(10)}, rng)
	if !early.Equal(rat.One) {
		t.Errorf("delay at t=0 is %v, want 1", early)
	}
	if !late.Equal(rat.FromInt(11)) {
		t.Errorf("delay at t=10 is %v, want 11", late)
	}
	// Spread below 1 is clamped to 1 (deterministic).
	p = GrowingDelay{Base: rat.One, Rate: rat.Zero, Spread: rat.New(1, 2)}
	if d := p.Delay(Message{SendTime: rat.Zero}, rng); !d.Equal(rat.One) {
		t.Errorf("clamped spread returned %v", d)
	}
}

func TestPerLinkDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := PerLinkDelay{
		Default: ConstantDelay{D: rat.One},
		Links: map[Link]DelayPolicy{
			{From: 0, To: 1}: ConstantDelay{D: rat.FromInt(7)},
		},
	}
	if d := p.Delay(Message{From: 0, To: 1}, rng); !d.Equal(rat.FromInt(7)) {
		t.Errorf("link override not applied: %v", d)
	}
	if d := p.Delay(Message{From: 1, To: 0}, rng); !d.Equal(rat.One) {
		t.Errorf("default not applied: %v", d)
	}
}

func TestOverrideDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := OverrideDelay{
		Base: ConstantDelay{D: rat.One},
		Match: func(m Message) bool {
			s, ok := m.Payload.(string)
			return ok && s == "slow"
		},
		Override: ConstantDelay{D: rat.FromInt(50)},
	}
	if d := p.Delay(Message{Payload: "slow"}, rng); !d.Equal(rat.FromInt(50)) {
		t.Errorf("override not applied: %v", d)
	}
	if d := p.Delay(Message{Payload: "fast"}, rng); !d.Equal(rat.One) {
		t.Errorf("base not applied: %v", d)
	}
	// Nil Match behaves as base.
	p.Match = nil
	if d := p.Delay(Message{Payload: "slow"}, rng); !d.Equal(rat.One) {
		t.Errorf("nil match misrouted: %v", d)
	}
}

// Property: uniform delays always land inside the configured interval.
func TestUniformDelayProperty(t *testing.T) {
	f := func(seed int64, a, b uint16) bool {
		lo := rat.New(int64(a%100)+1, 7)
		hi := lo.Add(rat.New(int64(b%100)+1, 3))
		rng := rand.New(rand.NewSource(seed))
		p := UniformDelay{Min: lo, Max: hi}
		d := p.Delay(Message{}, rng)
		return d.GreaterEq(lo) && d.LessEq(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the simulator never delivers before sending under any policy
// from this file.
func TestSimulatorDelayNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		res, err := Run(Config{
			N: 3,
			Spawn: func(p ProcessID) Process {
				return ProcessFunc(func(env *Env, msg Message) {
					if env.StepIndex() < 3 {
						env.Broadcast(env.StepIndex())
					}
				})
			},
			Delays: GrowingDelay{Base: rat.One, Rate: rat.New(1, 2), Spread: rat.New(3, 2)},
			Seed:   seed,
		})
		if err != nil {
			return false
		}
		for _, m := range res.Trace.Msgs {
			if m.RecvTime.Less(m.SendTime) {
				return false
			}
		}
		return res.Trace.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
