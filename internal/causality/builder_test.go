package causality

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rat"
	"repro/internal/sim"
)

// edgeKey is an order-independent identity for comparing edge sets: the
// Builder interleaves local and message edges in event order while Build
// groups them, so IDs differ but the sets must match exactly. Msg is a
// message edge's message, the trigger of its target event, and -1 for a
// local edge.
type edgeKey struct {
	From, To NodeID
	Kind     EdgeKind
	Msg      sim.MsgID
}

func edgeSet(g *Graph) map[edgeKey]int {
	set := make(map[edgeKey]int, g.NumEdges())
	for _, e := range g.Edges() {
		msg := sim.MsgID(-1)
		if e.Kind == Message {
			msg = g.Trace().Events[e.To].Trigger
		}
		set[edgeKey{e.From, e.To, e.Kind, msg}]++
	}
	return set
}

// edgePreds reads each node's predecessors off g.Edges() and fails if a
// node has more than one local or more than one message in-edge.
func edgePreds(t *testing.T, g *Graph) []Pred {
	t.Helper()
	preds := make([]Pred, g.NumNodes())
	for i := range preds {
		preds[i] = Pred{Local: -1, Msg: -1}
	}
	for _, e := range g.Edges() {
		slot := &preds[e.To].Local
		if e.Kind == Message {
			slot = &preds[e.To].Msg
		}
		if *slot >= 0 {
			t.Fatalf("node %v has a second %v in-edge (from %v and %v)", g.Node(e.To), e.Kind, g.Node(*slot), g.Node(e.From))
		}
		*slot = e.From
	}
	return preds
}

// checkPreds asserts that g.Preds() is the predecessor list read off
// g.Edges().
func checkPreds(t *testing.T, ctx string, g *Graph) {
	t.Helper()
	got, want := g.Preds(), edgePreds(t, g)
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("%s: Preds()[%v] = %+v, edges say %+v", ctx, g.Node(NodeID(id)), got[id], want[id])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Preds() has %d entries for %d nodes", ctx, len(got), len(want))
	}
}

func equalEdgeSets(a, b map[edgeKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// checkMatchesBatch asserts that the incrementally built graph is
// semantically identical to a batch Build of the same (sub)trace.
func checkMatchesBatch(t *testing.T, ctx string, inc, batch *Graph) {
	t.Helper()
	if inc.NumNodes() != batch.NumNodes() {
		t.Fatalf("%s: nodes %d != %d", ctx, inc.NumNodes(), batch.NumNodes())
	}
	if inc.NumEdges() != batch.NumEdges() {
		t.Fatalf("%s: edges %d != %d", ctx, inc.NumEdges(), batch.NumEdges())
	}
	if inc.MessageCount() != batch.MessageCount() {
		t.Fatalf("%s: messages %d != %d", ctx, inc.MessageCount(), batch.MessageCount())
	}
	for i := 0; i < inc.NumNodes(); i++ {
		if inc.Node(NodeID(i)) != batch.Node(NodeID(i)) {
			t.Fatalf("%s: node %d: %+v != %+v", ctx, i, inc.Node(NodeID(i)), batch.Node(NodeID(i)))
		}
	}
	if !equalEdgeSets(edgeSet(inc), edgeSet(batch)) {
		t.Fatalf("%s: edge sets differ", ctx)
	}
	// Predecessors agree between the constructions and with the edges.
	checkPreds(t, ctx+" Builder", inc)
	checkPreds(t, ctx+" Build", batch)
	if !slices.Equal(inc.Preds(), batch.Preds()) {
		t.Fatalf("%s: Builder and Build predecessors differ", ctx)
	}
	if !inc.IsDAG() {
		t.Fatalf("%s: incremental graph not a DAG", ctx)
	}
}

// randomTrace simulates a small broadcast workload, optionally with a
// faulty process and a drop option exercised.
func randomTrace(t *testing.T, seed int64, n int, faulty bool) *sim.Trace {
	t.Helper()
	cfg := sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 4 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:    sim.UniformDelay{Min: rat.Zero, Max: rat.FromInt(2)},
		Seed:      seed,
		MaxEvents: 80,
	}
	if faulty {
		cfg.Faults = map[sim.ProcessID]sim.Fault{0: {CrashAfter: 2}}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestBuilderMatchesBatchBuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, faulty := range []bool{false, true} {
			tr := randomTrace(t, seed, 3+int(seed%3), faulty)
			opts := Options{}
			if seed%4 == 0 {
				opts.DropMessage = func(m sim.Message) bool { return m.To == 1 }
			}
			b, err := NewBuilder(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			consumed, err := b.Append()
			if err != nil {
				t.Fatal(err)
			}
			if consumed != len(tr.Events) {
				t.Fatalf("consumed %d of %d events", consumed, len(tr.Events))
			}
			ctx := fmt.Sprintf("seed=%d faulty=%v", seed, faulty)
			checkMatchesBatch(t, ctx, b.Graph(), Build(tr, opts))
		}
	}
}

// TestBuilderIncrementalPrefixes grows the graph in chunks and checks
// every intermediate state against a batch Build of the same prefix.
func TestBuilderIncrementalPrefixes(t *testing.T) {
	tr := randomTrace(t, 42, 4, false)
	shell := &sim.Trace{N: tr.N, Msgs: tr.Msgs, Faulty: tr.Faulty}
	b, err := NewBuilder(shell, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 3; ; j += 3 {
		if j > len(tr.Events) {
			j = len(tr.Events)
		}
		shell.Events = tr.Events[:j]
		if _, err := b.Append(); err != nil {
			t.Fatal(err)
		}
		if b.Graph().NumNodes() != j {
			t.Fatalf("consumed %d, want %d", b.Graph().NumNodes(), j)
		}
		events := make([]sim.Event, j)
		copy(events, tr.Events[:j])
		sub, err := sim.Reassemble(tr.N, events, tr.Msgs, tr.Faulty)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesBatch(t, fmt.Sprintf("prefix=%d", j), b.Graph(), Build(sub, Options{}))
		if j == len(tr.Events) {
			break
		}
	}
}

// reorderedTrace builds a valid trace whose events are not in causal
// delivery order: p0's wake-up is listed after the receive of a message
// it sent. Build handles it (backward edge in node order); the Builder
// must reject it.
func reorderedTrace(t *testing.T) *sim.Trace {
	t.Helper()
	wake0 := sim.Message{ID: 0, From: sim.External, To: 0, SendStep: sim.SendStepExternal, Payload: sim.Wakeup{}}
	wake1 := sim.Message{ID: 1, From: sim.External, To: 1, SendStep: sim.SendStepExternal, Payload: sim.Wakeup{}}
	m := sim.Message{ID: 2, From: 0, To: 1, SendStep: 0, SendTime: rat.Zero, RecvTime: rat.One}
	events := []sim.Event{
		{Proc: 1, Index: 0, Trigger: 1, Processed: true},
		{Proc: 1, Index: 1, Time: rat.One, Trigger: 2, Processed: true},
		{Proc: 0, Index: 0, Trigger: 0, Processed: true}, // sender's step listed last
	}
	tr, err := sim.Reassemble(2, events, []sim.Message{wake0, wake1, m}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderRejectsNonCausalOrder(t *testing.T) {
	tr := reorderedTrace(t)
	b, err := NewBuilder(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(); err == nil {
		t.Fatal("Append accepted a trace out of causal delivery order")
	}
}

// TestBuilderErrorLeavesWholeEvents checks that a rejected event leaves
// no trace in the graph: after the causal-order error on the reordered
// trace, the graph holds exactly p1's wake-up (one node, no edge), and a
// retry fails on the same event with the same error instead of a
// per-process index mismatch.
func TestBuilderErrorLeavesWholeEvents(t *testing.T) {
	b, err := NewBuilder(reorderedTrace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, first := b.Append()
	if first == nil || !strings.Contains(first.Error(), "received before its sending step") {
		t.Fatalf("Append: consumed %d, error %v; want a causal-order error", n, first)
	}
	if g := b.Graph(); n != 1 || g.NumNodes() != 1 || g.NumEdges() != 0 || g.MessageCount() != 0 {
		t.Fatalf("after the error: consumed %d, %d nodes, %d edges, %d messages; want 1, 1, 0, 0",
			n, g.NumNodes(), g.NumEdges(), g.MessageCount())
	}
	n, again := b.Append()
	if n != 0 || again == nil || again.Error() != first.Error() {
		t.Fatalf("retry: consumed %d, error %v; want 0 and %q", n, again, first)
	}
}

// TestPredsAcrossTraceKinds compares Preds from Build and from the
// Builder against the predecessors read off Edges, on traces with a
// crash, faulty-sent messages, DropMessage-exempted messages, scripted
// Byzantine sends and the reordered trace. The Builder stops at the
// reordered trace's first out-of-order event, so there its predecessors
// must equal a prefix of Build's.
func TestPredsAcrossTraceKinds(t *testing.T) {
	faultySent := sim.NewTraceBuilder(3)
	faultySent.SetFaulty(1)
	faultySent.WakeAll(rat.Zero)
	faultySent.MsgAt(0, 0, 1, 1, "m1")
	faultySent.MsgAt(1, 1, 2, 2, "m2")
	scripted, err := sim.Run(sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 3 {
					env.Broadcast(nil)
				}
			})
		},
		Delays: sim.ConstantDelay{D: rat.One},
		Faults: map[sim.ProcessID]sim.Fault{2: {CrashAfter: sim.NeverCrash, Script: []sim.ScriptedSend{
			{At: rat.FromInt(2), To: 0, Payload: "scripted"},
			{At: rat.FromInt(3), To: 1, Payload: "scripted"},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(scripted.Trace.Events, func(ev sim.Event) bool {
		return scripted.Trace.Msgs[ev.Trigger].SendStep == sim.SendStepScripted
	}) {
		t.Fatal("no scripted send was received")
	}
	dropTo1 := Options{DropMessage: func(m sim.Message) bool { return m.To == 1 }}
	cases := []struct {
		name    string
		tr      *sim.Trace
		opts    Options
		partial bool // the Builder rejects an event and stops
	}{
		{"crash", randomTrace(t, 3, 4, true), Options{}, false},
		{"faulty-sent", faultySent.MustBuild(), Options{}, false},
		{"dropped", randomTrace(t, 5, 4, false), dropTo1, false},
		{"scripted", scripted.Trace, Options{}, false},
		{"reordered", reorderedTrace(t), Options{}, true},
	}
	for _, tc := range cases {
		batch := Build(tc.tr, tc.opts)
		checkPreds(t, tc.name+" Build", batch)
		b, err := NewBuilder(tc.tr, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		_, appendErr := b.Append()
		if (appendErr != nil) != tc.partial {
			t.Fatalf("%s: Append: %v", tc.name, appendErr)
		}
		inc := b.Graph()
		checkPreds(t, tc.name+" Builder", inc)
		bp, ip := batch.Preds(), inc.Preds()
		if len(ip) > len(bp) || !slices.Equal(ip, bp[:len(ip)]) {
			t.Fatalf("%s: Builder predecessors %v are not a prefix of Build's %v", tc.name, ip, bp)
		}
		if !tc.partial && len(ip) != len(bp) {
			t.Fatalf("%s: Builder has %d nodes, Build %d", tc.name, len(ip), len(bp))
		}
	}
}

// TestBuilderGraphConcurrentReads reads one Builder graph, never
// finalized, from several goroutines at once; run under the race
// detector it fails if any read writes to the graph. The Build graph of
// the reordered trace sends IsDAG down its Kahn path.
func TestBuilderGraphConcurrentReads(t *testing.T) {
	tr := randomTrace(t, 7, 4, true)
	b, err := NewBuilder(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	reordered, err := NewBuilder(reorderedTrace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reordered.Append(); err == nil {
		t.Fatal("Append accepted the reordered trace")
	}
	kahn := Build(reorderedTrace(t), Options{})
	// The reference closure comes from a separate graph, so every read
	// of g happens inside the goroutines.
	last := NodeID(g.NumNodes() - 1)
	want := len(members(Build(tr, Options{}).LeftClosure(last)))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !g.IsDAG() || !reordered.Graph().IsDAG() || !kahn.IsDAG() {
				t.Error("acyclic graph reported cyclic")
			}
			if len(g.Preds()) != g.NumNodes() || len(reordered.Graph().Preds()) != 1 {
				t.Error("Preds length differs from the node count")
			}
			if c := g.LeftClosure(last); len(members(c)) != want || !c.IsLeftClosed() {
				t.Error("concurrent LeftClosure differs")
			}
		}()
	}
	wg.Wait()
}

// TestIsDAGKahnFallback exercises the slow path: the reordered trace's
// graph has a backward edge in node order yet is acyclic, and a
// hand-built time-paradox trace (two messages at equal times triggering
// each other) is cyclic.
func TestIsDAGKahnFallback(t *testing.T) {
	g := Build(reorderedTrace(t), Options{})
	if !g.IsDAG() {
		t.Fatal("acyclic reordered graph reported cyclic")
	}

	ma := sim.Message{ID: 0, From: 1, To: 0, SendStep: 0, SendTime: rat.One, RecvTime: rat.One}
	mb := sim.Message{ID: 1, From: 0, To: 1, SendStep: 0, SendTime: rat.One, RecvTime: rat.One}
	events := []sim.Event{
		{Proc: 0, Index: 0, Time: rat.One, Trigger: 0, Processed: true},
		{Proc: 1, Index: 0, Time: rat.One, Trigger: 1, Processed: true},
	}
	tr, err := sim.Reassemble(2, events, []sim.Message{ma, mb}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if Build(tr, Options{}).IsDAG() {
		t.Fatal("time-paradox graph reported acyclic")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(&sim.Trace{N: 0}, Options{}); err == nil {
		t.Error("NewBuilder accepted N=0")
	}
	if _, err := NewBuilder(&sim.Trace{N: 2, Faulty: []bool{false}}, Options{}); err == nil {
		t.Error("NewBuilder accepted short Faulty")
	}
	// Node IDs are int32: Append turns the last position that fits into a
	// node ID and rejects the next one instead of wrapping.
	if id, err := nodeID(math.MaxInt32); err != nil || id != math.MaxInt32 {
		t.Errorf("nodeID(MaxInt32) = %d, %v", id, err)
	}
	// A position past int32 only exists where int is 64 bits.
	if strconv.IntSize == 64 {
		over := int64(math.MaxInt32) + 1
		if id, err := nodeID(int(over)); err == nil {
			t.Errorf("nodeID(MaxInt32+1) = %d, want an error", id)
		}
	}
}

// TestGraphRecordsPointerFree pins the execution graph's storage: 8 B per
// node record and 12 B per edge, with no pointer in either, so the
// graph's node and edge arrays are memory the garbage collector never
// scans.
func TestGraphRecordsPointerFree(t *testing.T) {
	if s := unsafe.Sizeof(nodeRec{}); s != 8 {
		t.Errorf("node record is %d B, want 8", s)
	}
	if s := unsafe.Sizeof(Edge{}); s != 12 {
		t.Errorf("Edge is %d B, want 12", s)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(nodeRec{}), reflect.TypeOf(Edge{})} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// hasPointers reports whether a value of typ holds anything the garbage
// collector scans: a pointer, slice, map, channel, function, interface or
// string, directly or in a field or array element.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	default:
		return typ.Kind() > reflect.Complex128 // Bool through Complex128 are scalars
	}
}

// TestBuildAllocsConstant checks that Build sizes its graph from a
// counting pass: the allocation count is the same constant at 10^3 and
// 10^4 events (a slice grown by append would add about log2(growth)
// allocations per tenfold), and it asks DropMessage at most once per
// message.
func TestBuildAllocsConstant(t *testing.T) {
	var allocs []float64
	for _, events := range []int{1000, 10000} {
		res, err := sim.Run(sim.Config{
			N: 6,
			Spawn: func(p sim.ProcessID) sim.Process {
				return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) { env.Broadcast(nil) })
			},
			Faults:    map[sim.ProcessID]sim.Fault{5: {CrashAfter: 3}},
			Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Seed:      1,
			MaxEvents: events,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if len(tr.Events) != events {
			t.Fatalf("run recorded %d events, want %d", len(tr.Events), events)
		}
		asked := make(map[sim.MsgID]int)
		opts := Options{DropMessage: func(m sim.Message) bool {
			asked[m.ID]++
			return m.To == 2 && m.From == 3
		}}
		g := Build(tr, opts)
		for id, c := range asked {
			if c > 1 {
				t.Fatalf("%d events: DropMessage asked %d times about message %d", events, c, id)
			}
		}
		if g.NumNodes() != events || g.MessageCount() == 0 {
			t.Fatalf("%d events: graph has %d nodes, %d messages", events, g.NumNodes(), g.MessageCount())
		}
		opts.DropMessage = func(m sim.Message) bool { return m.To == 2 && m.From == 3 }
		allocs = append(allocs, testing.AllocsPerRun(20, func() { Build(tr, opts) }))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("Build allocates %v times at 10^3 events, %v at 10^4: something grows with the trace", allocs[0], allocs[1])
	}
	// The graph itself, its node and edge arrays, the node lists with
	// their backing array, and the counting pass's offsets: no index.
	if allocs[0] > 6 {
		t.Fatalf("Build allocates %v times, want at most 6", allocs[0])
	}
}
