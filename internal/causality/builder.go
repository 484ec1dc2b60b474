package causality

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Builder grows an execution graph incrementally as its trace is appended
// to, in O(new events) per batch. It is the substrate of the online
// admissibility engine (check.Incremental): a monitor holds one Builder
// against the simulator's live trace and consumes newly recorded events
// after every step instead of rebuilding the graph from scratch.
//
// The Builder requires the trace to be in causal delivery order: every
// message's sending event must appear in Trace.Events before its receive
// event, and each process's events must appear with dense, increasing
// indices. Every trace the simulator or TraceBuilder produces satisfies
// this (a message cannot be delivered before the step that sent it);
// Append reports an error otherwise. Batch Build has no such requirement.
//
// Unlike Build — which emits all local edges before all message edges —
// the Builder interleaves edges in event order: each consumed event
// appends its local edge (if any) and then its message edge (if kept).
// Edge IDs therefore differ between the two constructions of the same
// trace; the node set, node order, edge set, and all derived semantics
// (cycles, cuts, verdicts) are identical.
//
// A node's ID is its trace position, as in Build, and the Builder finds a
// message's sender in its own per-process node lists, so it also works on
// bare prefix views of a trace (a sim.Trace value whose Events slice is
// truncated).
//
// The Builder reads the trace exclusively through the retention-safe
// accessors (TotalEvents, EventByPos, TriggerOf), so it also consumes
// window-retention traces (sim.RetainWindow) — provided it is invoked
// often enough that no unconsumed event slides out of the window, which
// any per-event Monitor guarantees. A consumed-then-evicted event is
// fine; an evicted-before-consumption event is an error.
//
// Node IDs are trace positions and every consumed event becomes exactly
// one node, so the graph's node count is the number of events consumed.
// Node IDs are int32, so Append rejects a position beyond that range.
type Builder struct {
	g    *Graph
	opts Options
}

// NewBuilder returns a Builder over t that has consumed no events yet;
// call Append to consume whatever the trace currently holds.
func NewBuilder(t *sim.Trace, opts Options) (*Builder, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("causality: trace has N = %d", t.N)
	}
	if len(t.Faulty) != t.N {
		return nil, fmt.Errorf("causality: Faulty has length %d, want %d", len(t.Faulty), t.N)
	}
	return &Builder{
		g: &Graph{
			trace:     t,
			procNodes: make([][]NodeID, t.N),
		},
		opts: opts,
	}, nil
}

// Append consumes every trace event recorded since the last call,
// appending one node per event plus its local and (kept) message edges.
// It returns the number of events consumed. Every check runs before an
// event's node or edges are appended, so on error the graph is left at
// the last fully consumed event and a retry reports the same error.
func (b *Builder) Append() (int, error) {
	g, t := b.g, b.g.trace
	start := len(g.nodes)
	for pos := start; pos < t.TotalEvents(); pos++ {
		id, err := nodeID(pos)
		if err != nil {
			return pos - start, err
		}
		ev, ok := t.EventByPos(pos)
		if !ok {
			return pos - start, fmt.Errorf("causality: event %d was evicted by bounded retention before consumption (widen the window or consume more often)", pos)
		}
		if ev.Proc < 0 || int(ev.Proc) >= t.N {
			return pos - start, fmt.Errorf("causality: event %d has process %d out of range", pos, ev.Proc)
		}
		m, ok := t.TriggerOf(pos)
		if !ok {
			return pos - start, fmt.Errorf("causality: event %d has dangling trigger %d", pos, ev.Trigger)
		}
		if ev.Index != len(g.procNodes[ev.Proc]) {
			return pos - start, fmt.Errorf("causality: event %d at p%d has index %d, want %d (builder requires dense per-process order)",
				pos, ev.Proc, ev.Index, len(g.procNodes[ev.Proc]))
		}
		// A kept message's sending step must already be a node; a scripted
		// send without a step stays dangling, like in Build.
		sender := NodeID(-1)
		if !m.IsWakeup() && !dropped(t, b.opts, m) && m.SendStep >= 0 {
			sent := g.procNodes[m.From]
			if m.SendStep >= len(sent) {
				return pos - start, fmt.Errorf("causality: event %d received before its sending step p%d/%d (builder requires causal delivery order)",
					pos, m.From, m.SendStep)
			}
			sender = sent[m.SendStep]
		}

		g.nodes = append(g.nodes, nodeRec{proc: int32(ev.Proc), index: int32(ev.Index)})
		if pn := g.procNodes[ev.Proc]; len(pn) > 0 {
			g.edges = append(g.edges, Edge{From: pn[len(pn)-1], To: id, Kind: Local})
		}
		g.procNodes[ev.Proc] = append(g.procNodes[ev.Proc], id)
		if sender >= 0 {
			g.edges = append(g.edges, Edge{From: sender, To: id, Kind: Message})
			g.msgCount++
		}
	}
	return len(g.nodes) - start, nil
}

// nodeID returns the node ID of trace position pos, or an error when pos
// is beyond the int32 range of node IDs.
func nodeID(pos int) (NodeID, error) {
	if pos > math.MaxInt32 {
		return -1, fmt.Errorf("causality: event %d is beyond the graph's int32 node IDs", pos)
	}
	return NodeID(pos), nil
}

// Graph returns the graph under construction. It is a live view: later
// Append calls grow it in place. Reads never write to it, so it is safe
// for concurrent reads while no Append interleaves with them.
func (b *Builder) Graph() *Graph { return b.g }
