// Package scenario reconstructs the space–time diagrams of the ABC paper's
// figures as concrete traces and execution graphs. Tests use them as ground
// truth for the cycle machinery and checkers, and the benchmark harness
// (bench_test.go, cmd/abcbench) regenerates each figure's claimed property
// from them.
package scenario

import (
	"repro/internal/causality"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Fig1 is the relevant cycle of Fig. 1: a "slow" chain C1 of 4 consecutive
// messages from q to p spans a causal chain C2 of 5 messages (including the
// zero-delay m3) plus local edges from q to p.
//
// Process layout: q = 0, p = 1; C1 relays via 2, 3, 4; C2 relays via
// 5, 6, 7, 8. The cycle's Definition 3 classification is |Z+| = 4 (C1),
// |Z−| = 5 (C2), so the execution is ABC-admissible exactly for Ξ > 5/4.
type Fig1 struct {
	Trace *sim.Trace
	Graph *causality.Graph
	// Q and P are the endpoints of both chains.
	Q, P sim.ProcessID
	// Psi1 is p's receive event of C2's last message m5; Psi2 is p's
	// receive event of C1's last message m9 (ψ1 happens before ψ2).
	Psi1, Psi2 causality.NodeID
}

// BuildFig1 constructs the Fig. 1 scenario.
func BuildFig1() Fig1 {
	b := sim.NewTraceBuilder(9)
	b.WakeAll(rat.Zero)
	// C2: the fast chain q -> 5 -> 6 -> 7 -> 8 -> p; m3 (6 -> 7) has zero
	// delay (send and receive at time 2).
	b.MsgAt(0, 0, 5, 1, "m1")
	b.MsgAt(5, 1, 6, 2, "m2")
	b.MsgAt(6, 1, 7, 2, "m3") // zero delay
	b.MsgAt(7, 1, 8, 3, "m4")
	b.MsgAt(8, 1, 1, 4, "m5")
	// C1: the slow chain q -> 2 -> 3 -> 4 -> p spanning C2.
	b.MsgAt(0, 0, 2, 3, "m6")
	b.MsgAt(2, 1, 3, 6, "m7")
	b.MsgAt(3, 1, 4, 8, "m8")
	b.MsgAt(4, 1, 1, 10, "m9")
	tr := b.MustBuild()
	g := causality.Build(tr, causality.Options{})
	return Fig1{
		Trace: tr,
		Graph: g,
		Q:     0,
		P:     1,
		Psi1:  g.NodesOf(1)[1],
		Psi2:  g.NodesOf(1)[2],
	}
}

// Fig3 is the timeout scenario of Fig. 3 with Ξ = 2: process p broadcasts
// to p_slow and p_fast, then ping-pongs 2Ξ = 4 messages with p_fast. The
// reply of p_slow arrives only after the last pong event ψ, closing a
// relevant cycle with |Z−|/|Z+| = 4/2 = Ξ — violating the synchrony
// condition (2), which is why p may time out p_slow at ψ.
type Fig3 struct {
	Trace *sim.Trace
	Graph *causality.Graph
	// P, Fast, Slow are the processes (0, 1, 2).
	P, Fast, Slow sim.ProcessID
	// Psi is p's event closing the 4-message ping-pong chain; PhiReply is
	// p's receive event of p_slow's late reply.
	Psi, PhiReply causality.NodeID
}

// BuildFig3 constructs the Fig. 3 scenario (late reply, violating cycle).
func BuildFig3() Fig3 {
	tr := buildPingPong(true)
	g := causality.Build(tr, causality.Options{})
	return Fig3{
		Trace: tr, Graph: g, P: 0, Fast: 1, Slow: 2,
		Psi:      g.NodesOf(0)[2],
		PhiReply: g.NodesOf(0)[3],
	}
}

// Fig4 is the same communication pattern as Fig. 3, but the reply of
// p_slow arrives before event ψ: the cycle N closed by ψ is non-relevant
// (its local edge (φ, ψ) has the cycle's orientation), so no synchrony
// violation occurs for any Ξ.
type Fig4 struct {
	Trace *sim.Trace
	Graph *causality.Graph
	// Phi is p's receive event of the timely reply; Psi is the later
	// ping-pong completion event.
	Phi, Psi causality.NodeID
}

// BuildFig4 constructs the Fig. 4 scenario (timely reply, non-relevant
// cycle).
func BuildFig4() Fig4 {
	tr := buildPingPong(false)
	g := causality.Build(tr, causality.Options{})
	return Fig4{
		Trace: tr, Graph: g,
		Phi: g.NodesOf(0)[2],
		Psi: g.NodesOf(0)[3],
	}
}

// buildPingPong lays out the common pattern of Figs. 3 and 4: p (0)
// broadcasts at its wake-up to p_fast (1) and p_slow (2); p and p_fast
// exchange a 4-message ping-pong chain (2Ξ messages for Ξ = 2); p_slow's
// reply is late (after the chain's last event ψ, Fig. 3) or timely
// (before ψ, Fig. 4).
func buildPingPong(late bool) *sim.Trace {
	b := sim.NewTraceBuilder(3)
	b.WakeAll(rat.Zero)
	// Initial broadcast from p's wake-up step.
	b.MsgAt(0, 0, 1, 1, "ping1") // to p_fast: chain message 1
	b.MsgAt(0, 0, 2, 1, "query") // to p_slow
	b.MsgAt(1, 1, 0, 2, "pong1") // chain message 2; p event 1
	b.MsgAt(0, 1, 1, 3, "ping2") // chain message 3; fast event 2
	if late {
		b.MsgAt(1, 2, 0, 4, "pong2") // chain message 4; p event 2 = ψ
		b.MsgAt(2, 1, 0, 6, "reply") // p event 3 = φ'': closes the violating cycle
	} else {
		b.Msg(2, 1, 0, rat.New(7, 2), "reply") // p event 2 = φ: timely
		b.MsgAt(1, 2, 0, 4, "pong2")           // p event 3 = ψ: closes non-relevant N
	}
	return b.MustBuild()
}

// Fig9 is the cumulative-constraint scenario of Fig. 9 (Section 5.3): the
// q↔p ping-pong spans a three-hop path q→r→s→r→q whose individual wires
// are mismatched by a factor of 18 (rs takes 1/2 a time unit, qr takes 9),
// yet the cumulative delays along every relevant cycle stay within Ξ = 3 —
// per-wire ratios do not matter, only per-cycle message counts.
type Fig9 struct {
	Trace *sim.Trace
	Graph *causality.Graph
}

// BuildFig9 constructs the Fig. 9 scenario.
func BuildFig9() Fig9 {
	b := sim.NewTraceBuilder(4)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 5, "qp")
	b.MsgAt(1, 1, 0, 10, "pq")
	b.MsgAt(0, 0, 2, 9, "qr") // slow wire
	b.Msg(2, 1, 3, rat.New(19, 2), "rs")
	b.MsgAt(3, 1, 2, 10, "sr")
	b.MsgAt(2, 2, 0, 19, "rq")
	tr := b.MustBuild()
	return Fig9{Trace: tr, Graph: causality.Build(tr, causality.Options{})}
}

// Fig2 is the execution graph of Fig. 2: two relevant cycles X and Y that
// share one message e with opposite orientations (e ∈ X+ and e ∈ Y−), so
// that the combined cycle X ⊕ Y consists of all edges except e.
//
// Layout: q = 0, p = 1, a = 2, r = 3.
//
//	X: the direct message e (q→p) spans the 2-message chain q→a→p
//	   (messages m1, m2):     |X+| = 1, |X−| = 2.
//	Y: the direct message m4 (q→r) spans the 2-message chain q→p→r
//	   (messages e, m3):      |Y+| = 1, |Y−| = 2.
//
// X ⊕ Y is the relevant cycle where m4 spans the 3-message chain
// q→a→p→r, with ratio 3/1 — larger than either constituent's 2/1, which is
// precisely why the Farkas argument of Section 4.1 must handle cycle
// combinations.
type Fig2 struct {
	Trace *sim.Trace
	Graph *causality.Graph
	// X and Y are the two relevant cycles as step sequences; E is the
	// shared message's edge ID.
	X, Y []causality.EdgeID
	E    causality.EdgeID
}

// BuildFig2 constructs the Fig. 2 scenario.
func BuildFig2() Fig2 {
	b := sim.NewTraceBuilder(4)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 2, 1, "m1") // q -> a
	b.MsgAt(2, 1, 1, 2, "m2") // a -> p   (p event 1 = u1)
	b.MsgAt(0, 0, 1, 3, "e")  // q -> p   (p event 2 = u2)
	b.MsgAt(1, 2, 3, 4, "m3") // p -> r   (r event 1)
	b.MsgAt(0, 0, 3, 5, "m4") // q -> r   (r event 2)
	tr := b.MustBuild()
	g := causality.Build(tr, causality.Options{})

	find := func(name string) causality.EdgeID {
		for i, e := range g.Edges() {
			if e.Kind != causality.Message {
				continue
			}
			if s, ok := tr.Msgs[tr.Events[e.To].Trigger].Payload.(string); ok && s == name {
				return causality.EdgeID(i)
			}
		}
		panic("scenario: message " + name + " not found")
	}
	localAt := func(p sim.ProcessID, fromIdx int) causality.EdgeID {
		nodes := g.NodesOf(p)
		for i, e := range g.Edges() {
			if e.Kind == causality.Local && e.From == nodes[fromIdx] && e.To == nodes[fromIdx+1] {
				return causality.EdgeID(i)
			}
		}
		panic("scenario: local edge not found")
	}

	return Fig2{
		Trace: tr,
		Graph: g,
		X:     []causality.EdgeID{find("e"), localAt(1, 1), find("m2"), find("m1")},
		Y:     []causality.EdgeID{find("m4"), localAt(3, 1), find("m3"), find("e")},
		E:     find("e"),
	}
}
