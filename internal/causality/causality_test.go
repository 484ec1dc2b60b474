package causality

import (
	"testing"

	"repro/internal/rat"
	"repro/internal/sim"
)

// chainTrace builds a 3-process trace:
//
//	p0: w0 ──m1──> p1: e1 ──m2──> p2: e2
//	p0: w0 ──m3────────────────────> p2: e3
func chainTrace(t *testing.T) *sim.Trace {
	t.Helper()
	b := sim.NewTraceBuilder(3)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, "m1")
	b.MsgAt(1, 1, 2, 2, "m2")
	b.MsgAt(0, 0, 2, 3, "m3")
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildBasic(t *testing.T) {
	g := Build(chainTrace(t), Options{})
	if g.NumNodes() != 6 {
		t.Fatalf("got %d nodes, want 6 (3 wake-ups + 3 receives)", g.NumNodes())
	}
	locals, msgs := 0, 0
	for _, e := range g.Edges() {
		switch e.Kind {
		case Local:
			locals++
		case Message:
			msgs++
		}
	}
	// Local: p1 has 2 events (1 edge), p2 has 3 events (2 edges).
	if locals != 3 {
		t.Errorf("got %d local edges, want 3", locals)
	}
	if msgs != 3 {
		t.Errorf("got %d message edges, want 3", msgs)
	}
	if g.MessageCount() != 3 {
		t.Errorf("MessageCount = %d, want 3", g.MessageCount())
	}
	// The graph is a DAG.
	if !g.IsDAG() {
		t.Error("execution graph is not a DAG")
	}
}

func TestEdgeKindString(t *testing.T) {
	if Local.String() != "local" || Message.String() != "message" {
		t.Error("EdgeKind String wrong")
	}
	if EdgeKind(9).String() != "EdgeKind(9)" {
		t.Error("unknown EdgeKind String wrong")
	}
}

func TestHappensBefore(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	w0 := g.NodesOf(0)[0]
	e1 := g.NodesOf(1)[1]
	e2 := g.NodesOf(2)[1]
	w2 := g.NodesOf(2)[0]

	tests := []struct {
		a, b NodeID
		want bool
	}{
		{w0, e1, true},
		{w0, e2, true},
		{e1, e2, true},
		{e2, e1, false},
		{e1, w0, false},
		{w2, e2, true}, // local order
		{e1, e1, true}, // reflexive
	}
	for _, tt := range tests {
		if got := g.LeftClosure(tt.b).Contains(tt.a); got != tt.want {
			t.Errorf("%v ∗→ %v = %v, want %v", g.Node(tt.a), g.Node(tt.b), got, tt.want)
		}
	}
}

func TestFaultyMessageDropping(t *testing.T) {
	// p1 is faulty: m1 (p0->p1) keeps its message edge (correct sender);
	// m2 (p1->p2) loses its message edge. All receive events remain as
	// nodes (see the package comment: node-preserving dropping is
	// equivalent for all cycle purposes).
	b := sim.NewTraceBuilder(3)
	b.SetFaulty(1)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, "m1")
	b.MsgAt(1, 1, 2, 2, "m2")
	tr := b.MustBuild()
	g := Build(tr, Options{})

	if g.NumNodes() != 5 {
		t.Fatalf("got %d nodes, want 5 (all receive events)", g.NumNodes())
	}
	if g.MessageCount() != 1 {
		t.Errorf("got %d message edges, want 1 (only m1)", g.MessageCount())
	}
	// m2's receive event exists but has no incoming message edge.
	recv := g.NodesOf(2)[1]
	for _, e := range g.Edges() {
		if e.To == recv && e.Kind == Message {
			t.Error("dropped message still has a message edge")
		}
	}
	if p := g.Preds()[recv]; p.Msg != -1 || p.Local != g.NodesOf(2)[0] {
		t.Errorf("Preds of the dropped message's receive = %+v", p)
	}
}

func TestMessageFromStepTriggeredByFaulty(t *testing.T) {
	// p1 faulty sends to p0; p0's step triggered by that message sends to
	// p2. The correct message anchors at its true sending step (p0's
	// event 1), which remains a node.
	b := sim.NewTraceBuilder(3)
	b.SetFaulty(1)
	b.WakeAll(rat.Zero)
	b.MsgAt(1, 0, 0, 1, "faulty")
	b.MsgAt(0, 1, 2, 2, "fromTriggered") // sent from p0's event 1
	tr := b.MustBuild()
	g := Build(tr, Options{})

	var msgEdge *Edge
	for i := range g.Edges() {
		if g.Edges()[i].Kind == Message {
			e := g.Edges()[i]
			msgEdge = &e
		}
	}
	if msgEdge == nil {
		t.Fatal("no message edge for correct message from triggered step")
	}
	from := g.Node(msgEdge.From)
	if from.Proc != 0 || from.Index != 1 {
		t.Errorf("message anchored at %v, want p0/1", from)
	}
}

func TestDropMessageOption(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{
		DropMessage: func(m sim.Message) bool {
			s, ok := m.Payload.(string)
			return ok && s == "m3"
		},
	})
	if g.MessageCount() != 2 {
		t.Errorf("got %d messages after drop, want 2", g.MessageCount())
	}
}

func TestLeftClosureAndCuts(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	e2 := g.NodesOf(2)[1] // receive of m2 at p2

	cone := g.CausalCone(e2)
	// Causal past of e2: e2 itself, p2's wake-up, e1, p1's wake-up, p0's
	// wake-up. Not p2's event 2 (m3 receive).
	if n := len(members(cone)); n != 5 {
		t.Errorf("cone size = %d, want 5", n)
	}
	if !cone.IsLeftClosed() {
		t.Error("causal cone not left-closed")
	}
	if !cone.IsConsistent() {
		t.Error("causal cone should be consistent (covers every process)")
	}

	// Removing an interior node breaks left-closure.
	broken := NewCut(g)
	for _, n := range members(cone) {
		if n != g.NodesOf(1)[0] {
			broken.in[n] = true
		}
	}
	if broken.IsLeftClosed() {
		t.Error("cut missing causal past reported left-closed")
	}
	if broken.IsConsistent() {
		t.Error("non-left-closed cut reported consistent")
	}
}

func TestConsistencyRequiresAllCorrectProcesses(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	c := g.LeftClosure(g.NodesOf(0)[0]) // only p0's wake-up
	if !c.IsLeftClosed() {
		t.Error("singleton wake-up closure not left-closed")
	}
	if c.IsConsistent() {
		t.Error("cut without events of p1, p2 reported consistent")
	}
}

func TestFrontier(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	e3 := g.NodesOf(2)[2]
	cone := g.CausalCone(e3)
	// Frontier at p2 is e3 itself; at p0 its wake-up.
	if f := cone.Frontier(2); f != e3 {
		t.Errorf("frontier(p2) = %v, want %v", f, e3)
	}
	if f := cone.Frontier(0); f != g.NodesOf(0)[0] {
		t.Errorf("frontier(p0) = %v", f)
	}
	empty := NewCut(g)
	if f := empty.Frontier(0); f != -1 {
		t.Errorf("frontier on empty cut = %v, want -1", f)
	}
}

func TestCutAtTime(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	c := g.CutAtTime(rat.FromInt(1))
	// At time 1: all wake-ups (t=0) + receive of m1 (t=1).
	if n := len(members(c)); n != 4 {
		t.Errorf("cut at t=1 has %d nodes, want 4", n)
	}
	// Real-time cuts are always left-closed.
	if !c.IsLeftClosed() {
		t.Error("real-time cut not left-closed")
	}
	if !c.IsConsistent() {
		t.Error("real-time cut at t=1 should be consistent")
	}
}

func TestInterval(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	w0 := g.NodesOf(0)[0]
	e2 := g.NodesOf(2)[1]
	iv := g.Interval(w0, e2)
	// ⟨e2⟩ has 5 nodes, ⟨w0⟩ has 1; the interval has 4.
	if n := len(members(iv)); n != 4 {
		t.Errorf("interval size = %d, want 4", n)
	}
	if iv.Contains(w0) {
		t.Error("interval contains left endpoint's closure")
	}
	if !iv.Contains(e2) {
		t.Error("interval missing right endpoint")
	}
}

func TestCloseInPlace(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	// Closing a one-node cut adds that node's causal past.
	c := NewCut(g)
	c.in[g.NodesOf(2)[1]] = true
	c = g.LeftClosure(members(c)...)
	if !c.IsLeftClosed() || len(members(c)) != 5 {
		t.Errorf("closure: leftClosed=%v size=%d", c.IsLeftClosed(), len(members(c)))
	}
}

func TestNodesAndAccessors(t *testing.T) {
	tr := chainTrace(t)
	g := Build(tr, Options{})
	if g.Trace() != tr {
		t.Error("Trace accessor wrong")
	}
	id := g.NodesOf(1)[0]
	n := g.Node(id)
	if n.Proc != 1 || n.Index != 0 || !tr.Msgs[tr.Events[id].Trigger].IsWakeup() {
		t.Errorf("node = %+v, trigger %+v", n, tr.Msgs[tr.Events[id].Trigger])
	}
	if n.String() != "p1/0" {
		t.Errorf("String = %q", n.String())
	}
	// A node's ID is its trace position, in both constructions.
	b, err := NewBuilder(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(); err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"Build": g, "Builder": b.Graph()} {
		if g.NumNodes() != len(tr.Events) {
			t.Fatalf("%s: %d nodes for %d events", name, g.NumNodes(), len(tr.Events))
		}
		for pos, ev := range tr.Events {
			n := g.Node(NodeID(pos))
			if n.Proc != ev.Proc || n.Index != ev.Index {
				t.Errorf("%s: Node(NodeID(%d)) = %+v, event %+v", name, pos, n, ev)
			}
		}
	}
}

// Every receive event node has at most one incoming message edge and at
// most one incoming local edge — the structural fact behind "every cycle
// has at least one local edge" (see DESIGN.md) and behind Preds, which
// keeps one predecessor of each kind.
func TestInDegreeInvariant(t *testing.T) {
	res, err := sim.Run(sim.Config{
		N: 4,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 5 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(3)},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(res.Trace, Options{})
	msgs := make([]int, g.NumNodes())
	locals := make([]int, g.NumNodes())
	for _, e := range g.Edges() {
		switch e.Kind {
		case Message:
			msgs[e.To]++
		case Local:
			locals[e.To]++
		}
	}
	for id := range msgs {
		if msgs[id] > 1 || locals[id] > 1 {
			t.Fatalf("node %v has %d message and %d local in-edges", g.Node(NodeID(id)), msgs[id], locals[id])
		}
	}
	if !g.IsDAG() {
		t.Error("simulated execution graph not a DAG")
	}
}

// members returns the cut's nodes in ascending NodeID order.
func members(c *Cut) []NodeID {
	var out []NodeID
	for i, in := range c.in {
		if in {
			out = append(out, NodeID(i))
		}
	}
	return out
}
