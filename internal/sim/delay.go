package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/rat"
)

// A DelayPolicy assigns an end-to-end delay to each message. The ABC model
// places no constraint on individual delays — they may be zero, huge, or
// continuously growing — so the policy is the adversary's lever for shaping
// executions. Policies must return a non-negative delay and must be
// deterministic given the message and the rng.
type DelayPolicy interface {
	// Delay returns the end-to-end delay of m. The message has its ID,
	// From, To, SendTime and Payload fields populated; RecvTime is not yet
	// assigned.
	Delay(m Message, rng *rand.Rand) Time
}

// ConstantDelay delays every message by the same amount.
type ConstantDelay struct{ D Time }

// Delay implements DelayPolicy.
func (c ConstantDelay) Delay(Message, *rand.Rand) Time { return c.D }

// quantSteps is the quantization granularity of the randomized policies.
const quantSteps = 1 << 16

// UniformDelay draws delays uniformly from the rational interval
// [Min, Max], quantized to granularity (Max-Min)/2^16.
type UniformDelay struct{ Min, Max Time }

// Delay implements DelayPolicy.
func (u UniformDelay) Delay(_ Message, rng *rand.Rand) Time {
	span := u.Max.Sub(u.Min)
	k := rng.Int63n(quantSteps + 1)
	return u.Min.Add(span.Mul(rat.New(k, quantSteps)))
}

// compiledUniform is UniformDelay with the policy-constant span hoisted out
// of the per-message path. It draws from the rng exactly like UniformDelay,
// so compiled and uncompiled runs of the same seed produce identical
// traces.
type compiledUniform struct{ min, span Time }

// Delay implements DelayPolicy.
func (u compiledUniform) Delay(_ Message, rng *rand.Rand) Time {
	k := rng.Int63n(quantSteps + 1)
	return u.min.Add(u.span.Mul(rat.New(k, quantSteps)))
}

// GrowingDelay models systems whose delays increase without bound, like the
// paper's spacecraft clusters drifting apart (Section 5.3): a message sent
// at time t is delayed Base·(1 + Rate·t) scaled by a uniform factor in
// [1, Spread]. With Spread below the model's Ξ this remains ABC-admissible
// even though no static Θ or ParSync Δ bound can hold.
type GrowingDelay struct {
	Base   Time
	Rate   Time // growth per unit of send time
	Spread Time // >= 1; 1 means deterministic
}

// Delay implements DelayPolicy.
func (g GrowingDelay) Delay(m Message, rng *rand.Rand) Time {
	base := g.Base.Mul(rat.One.Add(g.Rate.Mul(m.SendTime)))
	spread := g.Spread
	if spread.Less(rat.One) {
		spread = rat.One
	}
	k := rng.Int63n(quantSteps + 1)
	factor := rat.One.Add(spread.Sub(rat.One).Mul(rat.New(k, quantSteps)))
	return base.Mul(factor)
}

// compiledGrowing is GrowingDelay with the spread clamp and the constant
// spread−1 hoisted out of the per-message path; same rng draw sequence.
type compiledGrowing struct{ base, rate, spreadM1 Time }

// Delay implements DelayPolicy.
func (g compiledGrowing) Delay(m Message, rng *rand.Rand) Time {
	base := g.base.Mul(rat.One.Add(g.rate.Mul(m.SendTime)))
	k := rng.Int63n(quantSteps + 1)
	return base.Mul(rat.One.Add(g.spreadM1.Mul(rat.New(k, quantSteps))))
}

// PerLinkDelay selects a policy per directed link, falling back to Default.
// It models heterogeneous networks such as the placed-and-routed VLSI chips
// of Section 5.3, where each wire has its own delay range.
type PerLinkDelay struct {
	Default DelayPolicy
	Links   map[Link]DelayPolicy
}

// Link is a directed process pair.
type Link struct{ From, To ProcessID }

// Delay implements DelayPolicy.
func (p PerLinkDelay) Delay(m Message, rng *rand.Rand) Time {
	if pol, ok := p.Links[Link{m.From, m.To}]; ok {
		return pol.Delay(m, rng)
	}
	return p.Default.Delay(m, rng)
}

// OverrideDelay applies Override to messages matched by Match and Base to
// all others. It is used to inject targeted anomalies such as the
// zero-delay message m3 of Fig. 1 or the slow reply of Fig. 3.
type OverrideDelay struct {
	Base     DelayPolicy
	Match    func(m Message) bool
	Override DelayPolicy
}

// Delay implements DelayPolicy.
func (o OverrideDelay) Delay(m Message, rng *rand.Rand) Time {
	if o.Match != nil && o.Match(m) {
		return o.Override.Delay(m, rng)
	}
	return o.Base.Delay(m, rng)
}

// DelayFunc adapts a function to the DelayPolicy interface.
type DelayFunc func(m Message, rng *rand.Rand) Time

// Delay implements DelayPolicy.
func (f DelayFunc) Delay(m Message, rng *rand.Rand) Time { return f(m, rng) }

// compileDelays validates p and returns an equivalent policy with
// per-policy constants (UniformDelay's span, GrowingDelay's clamped
// spread) computed once instead of per message. Composite policies are
// compiled recursively. The returned policy draws from the rng in exactly
// the same sequence as the original, so seeded runs are bit-identical.
// sim.Run applies it to Config.Delays; unknown policy types pass through
// untouched.
//
// A built-in policy whose bounds admit a negative delay — a ConstantDelay
// below zero, a UniformDelay with Min < 0 or Max < Min — is a
// configuration error, reported here at setup instead of as a panic at
// the first send that draws a negative value.
func compileDelays(p DelayPolicy) (DelayPolicy, error) {
	switch q := p.(type) {
	case ConstantDelay:
		if q.D.Sign() < 0 {
			return nil, fmt.Errorf("sim: constant delay %v is negative", q.D)
		}
		return q, nil
	case UniformDelay:
		if q.Min.Sign() < 0 {
			return nil, fmt.Errorf("sim: uniform delay [%v, %v] has negative minimum", q.Min, q.Max)
		}
		if q.Max.Less(q.Min) {
			return nil, fmt.Errorf("sim: uniform delay [%v, %v] has maximum below minimum", q.Min, q.Max)
		}
		return compiledUniform{min: q.Min, span: q.Max.Sub(q.Min)}, nil
	case GrowingDelay:
		spread := q.Spread
		if spread.Less(rat.One) {
			spread = rat.One
		}
		return compiledGrowing{base: q.Base, rate: q.Rate, spreadM1: spread.Sub(rat.One)}, nil
	case PerLinkDelay:
		def, err := compileDelays(q.Default)
		if err != nil {
			return nil, err
		}
		links := make(map[Link]DelayPolicy, len(q.Links))
		// Report the lowest failing link, so the error text does not
		// depend on map iteration order.
		var bad *Link
		var badErr error
		for l, lp := range q.Links {
			c, err := compileDelays(lp)
			if err != nil && (bad == nil || l.From < bad.From || l.From == bad.From && l.To < bad.To) {
				bad, badErr = &l, err
			}
			links[l] = c
		}
		if bad != nil {
			return nil, fmt.Errorf("%w (link %d->%d)", badErr, bad.From, bad.To)
		}
		return PerLinkDelay{Default: def, Links: links}, nil
	case OverrideDelay:
		base, err := compileDelays(q.Base)
		if err != nil {
			return nil, err
		}
		over, err := compileDelays(q.Override)
		if err != nil {
			return nil, err
		}
		return OverrideDelay{Base: base, Match: q.Match, Override: over}, nil
	default:
		return p, nil
	}
}
