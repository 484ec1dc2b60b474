package causality

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rat"
	"repro/internal/sim"
)

// randomExec builds a random execution graph from a seeded simulation.
func randomExec(seed int64) *Graph {
	if seed < 0 {
		seed = -seed
	}
	n := 2 + int(seed%3)
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 4 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
		Seed:   seed,
	})
	if err != nil {
		panic(err)
	}
	return Build(res.Trace, Options{})
}

// Property: left closure is idempotent and monotone.
func TestClosureIdempotentProperty(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		g := randomExec(seed)
		if g.NumNodes() == 0 {
			return true
		}
		n := NodeID(int(pick) % g.NumNodes())
		c1 := g.LeftClosure(n)
		c2 := g.LeftClosure(members(c1)...)
		if len(members(c1)) != len(members(c2)) {
			return false
		}
		return c1.IsLeftClosed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a consistent cut interval [⟨φ⟩, ⟨ψ⟩] never intersects ⟨φ⟩ and
// its union with ⟨φ⟩ is exactly ⟨ψ⟩ when φ ∗→ ψ.
func TestIntervalPartitionProperty(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := randomExec(seed)
		if g.NumNodes() < 2 {
			return true
		}
		x := NodeID(int(a) % g.NumNodes())
		y := NodeID(int(b) % g.NumNodes())
		if !g.LeftClosure(y).Contains(x) {
			return true
		}
		phi, psi := g.LeftClosure(x), g.LeftClosure(y)
		iv := g.Interval(x, y)
		for _, n := range members(iv) {
			if phi.Contains(n) {
				return false
			}
			if !psi.Contains(n) {
				return false
			}
		}
		return len(members(iv))+len(members(phi)) == len(members(psi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: happens-before (a ∈ ⟨b⟩) is a partial order — antisymmetric on
// distinct nodes (the graph is a DAG) and transitive.
func TestHappensBeforePartialOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := randomExec(int64(trial))
		n := g.NumNodes()
		if n < 3 {
			continue
		}
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		c := NodeID(rng.Intn(n))
		hb := func(x, y NodeID) bool { return g.LeftClosure(y).Contains(x) }
		if a != b && hb(a, b) && hb(b, a) {
			t.Fatalf("antisymmetry violated between %v and %v", g.Node(a), g.Node(b))
		}
		if hb(a, b) && hb(b, c) && !hb(a, c) {
			t.Fatalf("transitivity violated: %v -> %v -> %v", g.Node(a), g.Node(b), g.Node(c))
		}
	}
}

// Property: real-time cuts are consistent at every event time (Mattern's
// transfer, used by Theorem 3).
func TestRealTimeCutsConsistentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomExec(seed)
		for i := 0; i < g.NumNodes(); i += 3 {
			cut := g.CutAtTime(g.Trace().Events[i].Time)
			if !cut.IsLeftClosed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: frontier nodes are maximal within the cut for their process.
func TestFrontierMaximalProperty(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		g := randomExec(seed)
		if g.NumNodes() == 0 {
			return true
		}
		cut := g.LeftClosure(NodeID(int(pick) % g.NumNodes()))
		for p := sim.ProcessID(0); int(p) < g.Trace().N; p++ {
			fr := cut.Frontier(p)
			if fr < 0 {
				continue
			}
			for _, n := range g.NodesOf(p) {
				if cut.Contains(n) && g.Node(n).Index > g.Node(fr).Index {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a message edge's message is the trigger of its target event,
// the identity that lets an Edge carry no message ID. On random traces
// with a crashed sender and a DropMessage option, in both constructions,
// every message edge's trigger m is kept (neither a wake-up nor dropped)
// and e.From is m's sending step; and there are exactly as many message
// edges as events whose trigger is kept and names a recorded step.
func TestMessageEdgeIsTriggerProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(t, seed, 3+rng.Intn(3), seed%3 != 0)
		to, from := sim.ProcessID(rng.Intn(tr.N)), sim.ProcessID(rng.Intn(tr.N))
		opts := Options{DropMessage: func(m sim.Message) bool {
			return m.To == to || m.From == from && m.SendStep%2 == 1
		}}
		b, err := NewBuilder(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append(); err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*Graph{"Build": Build(tr, opts), "Builder": b.Graph()} {
			for _, e := range g.Edges() {
				if e.Kind != Message {
					continue
				}
				m := tr.Msgs[tr.Events[e.To].Trigger]
				if m.IsWakeup() || dropped(tr, opts, m) {
					t.Fatalf("seed %d %s: edge %v -> %v carries trigger %+v, which is not kept", seed, name, g.Node(e.From), g.Node(e.To), m)
				}
				if sent := g.NodesOf(m.From)[m.SendStep]; sent != e.From {
					t.Fatalf("seed %d %s: edge %v -> %v, but its trigger was sent at %v", seed, name, g.Node(e.From), g.Node(e.To), g.Node(sent))
				}
			}
			kept := 0
			for _, ev := range tr.Events {
				m := tr.Msgs[ev.Trigger]
				if !m.IsWakeup() && !dropped(tr, opts, m) && m.SendStep >= 0 && m.SendStep < len(g.NodesOf(m.From)) {
					kept++
				}
			}
			if kept != g.MessageCount() {
				t.Fatalf("seed %d %s: %d message edges for %d kept triggers", seed, name, g.MessageCount(), kept)
			}
		}
	}
}
