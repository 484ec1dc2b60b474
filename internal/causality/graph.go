// Package causality implements the execution graph of Definition 1 of the
// ABC paper and the causal-order machinery built on it: happens-before
// reachability, left closures, consistent cuts and their frontiers
// (Definition 5), consistent cut intervals (Definition 6), and real-time
// cuts in the sense of Mattern used by Theorem 3.
//
// The execution graph G_α of an admissible execution α has one node per
// receive event and two kinds of edges: non-local edges ("messages") from
// the computing step that sent a message to its receive event, and local
// edges between consecutive events at the same process.
//
// Messages sent by faulty processes are dropped per Definition 1. The
// definition also drops their receive events; this implementation instead
// keeps the receive event as a node without an incoming message edge.
// The two graphs are equivalent for every Definition 3/4 purpose: local
// edges are never counted in |Z−| or |Z+|, and subdividing a local chain
// with an extra node changes neither a cycle's message counts nor its
// orientation or relevance. Keeping the node additionally anchors
// messages a correct process sent from such a step at their true causal
// position (the paper is silent on that corner), preserves the physical
// event order, and makes exempting messages (Section 2's restriction
// mechanism, used by the Section 6 variants) monotone: dropping more
// messages never creates constraints.
//
// Graphs come in two flavors: Build constructs the complete graph of a
// finished trace in one shot, and Builder grows a graph event by event as
// its trace is appended to (the substrate of the incremental admissibility
// engine in internal/check). In both, every trace event is a node and a
// node's ID is its position in Trace.Events, so Node(NodeID(pos)) is the
// node of Events[pos]. Both resolve a message's sending step through the
// graph's own per-process node lists (NodesOf); the trace keeps no
// per-process index. Neither keeps an adjacency index: a node has at most
// one local and one message in-edge, so backward walks read Preds, one
// pass over the edges per call. No read writes to a graph, so any graph is
// safe for concurrent reads while no Builder.Append interleaves.
package causality

import (
	"fmt"

	"repro/internal/sim"
)

// NodeID indexes a node (receive event) within a Graph. It is the node's
// trace position, and trace positions are int32 (the engine caps N and
// MaxEvents there; Builder.Append rejects a position beyond it).
type NodeID int32

// Node is a receive event kept in the execution graph. The graph needs no
// event time or message identity (Definition 1 is a property of the
// space–time diagram alone); read them off Trace.Events[id] when needed.
type Node struct {
	Proc  sim.ProcessID
	Index int // the event's per-process index in the underlying trace
}

// nodeRec is a node as the graph stores it: 8 bytes, no pointers, so a
// graph's node array is memory the garbage collector never scans.
type nodeRec struct {
	proc, index int32
}

// EdgeKind distinguishes local edges from messages (non-local edges).
type EdgeKind uint8

// Edge kinds. Only Message edges count toward cycle lengths |Z−| and |Z+|
// (Definition 2: the length of a chain is its number of non-local edges).
const (
	Local EdgeKind = iota + 1
	Message
)

func (k EdgeKind) String() string {
	switch k {
	case Local:
		return "local"
	case Message:
		return "message"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// EdgeID indexes an edge within a Graph.
type EdgeID int

// Edge is a directed edge of the execution graph: 12 bytes, no pointers.
// A Message edge's message is the trigger of its target's receive event,
// Trace.Msgs[Trace.Events[e.To].Trigger]: a node's only message in-edge is
// its own trigger's.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is the execution graph G_α: its nodes, its edges and each
// process's node list. No method writes to it, so a graph from Build, or
// one a Builder grows, is safe for concurrent reads as long as no
// Builder.Append interleaves with them.
type Graph struct {
	trace *sim.Trace
	nodes []nodeRec
	edges []Edge
	// msgCount is the number of Message edges, maintained at build time so
	// MessageCount is O(1) (it is on the per-call path of every
	// MaxRelevantRatio invocation).
	msgCount int
	// procNodes lists each process's kept nodes in local order.
	procNodes [][]NodeID
}

// Options configure Build.
type Options struct {
	// DropMessage, when non-nil, exempts additional messages from the graph
	// (and hence from the ABC synchrony condition), as suggested in
	// Section 2 for messages "of some specific type or sent/received by
	// some specific processes" and used by the weaker models of Section 6.
	// The receive events of dropped messages are removed like those of
	// faulty-sent messages.
	DropMessage func(m sim.Message) bool
}

// dropped reports whether message m is exempt from the graph (and hence
// from the synchrony condition) under opts.
func dropped(t *sim.Trace, opts Options, m sim.Message) bool {
	if m.IsWakeup() {
		return false
	}
	if m.From >= 0 && m.SendStep == sim.SendStepScripted {
		return true // scripted sends come only from faulty processes
	}
	if t.Faulty[m.From] {
		return true
	}
	return opts.DropMessage != nil && opts.DropMessage(m)
}

// Build constructs the execution graph of a trace. A counting pass sizes
// every array exactly, so the graph costs a constant number of
// allocations whatever the trace length.
func Build(t *sim.Trace, opts Options) *Graph {
	// Counting pass: each process's event count, which fixes the node
	// lists' layout in one backing array.
	start := make([]int, t.N+1)
	for _, ev := range t.Events {
		start[ev.Proc+1]++
	}
	for p := 0; p < t.N; p++ {
		start[p+1] += start[p]
	}
	backing := make([]NodeID, len(t.Events))
	g := &Graph{
		trace:     t,
		nodes:     make([]nodeRec, len(t.Events)),
		procNodes: make([][]NodeID, t.N),
	}
	locals := 0
	for p := 0; p < t.N; p++ {
		g.procNodes[p] = backing[start[p]:start[p]:start[p+1]]
		if c := start[p+1] - start[p]; c > 1 {
			locals += c - 1
		}
	}

	// Pass 1: create a node for every receive event. Events triggered by
	// dropped messages stay as nodes (see the package comment) but will
	// get no incoming message edge.
	wakeups := 0
	for pos, ev := range t.Events {
		if t.Msgs[ev.Trigger].IsWakeup() {
			wakeups++
		}
		g.nodes[pos] = nodeRec{proc: int32(ev.Proc), index: int32(ev.Index)}
		g.procNodes[ev.Proc] = append(g.procNodes[ev.Proc], NodeID(pos))
	}

	// Every non-wake-up event can carry at most one message edge.
	g.edges = make([]Edge, 0, locals+len(t.Events)-wakeups)

	// Pass 2: local edges between consecutive kept events of each process.
	for p := 0; p < t.N; p++ {
		nodes := g.procNodes[p]
		for i := 1; i < len(nodes); i++ {
			g.edges = append(g.edges, Edge{From: nodes[i-1], To: nodes[i], Kind: Local})
		}
	}

	// Pass 3: message edges for kept messages, from the sending step's
	// node (looked up in pass 1's per-process lists) to the receive
	// event's node.
	for pos, ev := range t.Events {
		m := t.Msgs[ev.Trigger]
		if m.IsWakeup() || dropped(t, opts, m) {
			continue // external trigger or exempted: no message edge
		}
		sent := g.procNodes[m.From]
		if m.SendStep < 0 || m.SendStep >= len(sent) {
			continue // scripted send without a step: dangling
		}
		g.edges = append(g.edges, Edge{From: sent[m.SendStep], To: NodeID(pos), Kind: Message})
		g.msgCount++
	}

	return g
}

// Trace returns the underlying trace.
func (g *Graph) Trace() *sim.Trace { return g.trace }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node {
	r := g.nodes[id]
	return Node{Proc: sim.ProcessID(r.proc), Index: int(r.index)}
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns all edges. The caller must not modify the result.
func (g *Graph) Edges() []Edge { return g.edges }

// NodesOf returns process p's kept nodes in local order.
func (g *Graph) NodesOf(p sim.ProcessID) []NodeID { return g.procNodes[p] }

// MessageCount returns the number of non-local edges. It is O(1): the
// count is maintained at build time.
func (g *Graph) MessageCount() int { return g.msgCount }

// Pred holds a node's two possible predecessors in the execution graph:
// Local is the previous event of its process and Msg the sending step of
// its message edge, each -1 when the node has no such in-edge.
type Pred struct {
	Local, Msg NodeID
}

// Preds returns every node's predecessors, read off Edges in one pass. A
// receive event is triggered by exactly one message, so a node has at
// most one in-edge of each kind. The result belongs to the caller.
func (g *Graph) Preds() []Pred {
	preds := make([]Pred, len(g.nodes))
	for i := range preds {
		preds[i] = Pred{Local: -1, Msg: -1}
	}
	for _, e := range g.edges {
		if e.Kind == Local {
			preds[e.To].Local = e.From
		} else {
			preds[e.To].Msg = e.From
		}
	}
	return preds
}

// IsDAG reports whether the graph is acyclic. Graphs of traces in causal
// delivery order — everything the simulator or TraceBuilder produces —
// have every edge pointing from a lower to a higher node ID, which a
// single scan certifies; only externally loaded traces with reordered
// events pay for a Kahn topological sort, which removes sinks first and
// walks predecessors (Preds).
func (g *Graph) IsDAG() bool {
	ordered := true
	for _, e := range g.edges {
		if e.To <= e.From {
			ordered = false
			break
		}
	}
	if ordered {
		return true
	}
	n := len(g.nodes)
	outdeg := make([]int32, n)
	for _, e := range g.edges {
		outdeg[e.From]++
	}
	queue := make([]NodeID, 0, n)
	for v := range n {
		if outdeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	preds := g.Preds()
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, u := range [2]NodeID{preds[v].Local, preds[v].Msg} {
			if u < 0 {
				continue
			}
			outdeg[u]--
			if outdeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	return seen == n
}

// String renders a node as "p3/7" (process 3, event index 7).
func (n Node) String() string { return fmt.Sprintf("p%d/%d", n.Proc, n.Index) }
