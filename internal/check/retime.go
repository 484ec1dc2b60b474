package check

import (
	"fmt"
	"sort"

	"repro/internal/causality"
	"repro/internal/sim"
)

// Retime materializes the timed execution graph Gτ of Section 4 as an
// actual trace: the same processes, events and messages as the original
// execution, but with occurrence times replaced by the normalized
// assignment's times. The result is causally equivalent to the original
// (same execution graph) while every message delay lies strictly inside
// (1, Ξ) — the constructive half of the model indistinguishability between
// the ABC model and the Θ-Model (Theorems 7 and 9).
//
// Messages without a message edge in the graph (faulty-sent or exempted)
// carry no delay constraints; when the assignment places their endpoints
// out of order, their send time is clamped to the receive time to keep the
// trace well-formed.
func (a *Assignment) Retime() (*sim.Trace, error) {
	old := a.g.Trace()

	// New time per trace event: every event is a node of the graph, with
	// its trace position as ID (see internal/causality), so every event
	// has an assigned time.
	newTime := make([]sim.Time, len(old.Events))
	for pos := range old.Events {
		newTime[pos] = a.Time(causality.NodeID(pos))
	}

	// Rebuild messages with shifted send/recv times. Messages without a
	// message edge in the execution graph (faulty-sent or exempted) carry
	// no delay constraints and may need clamping. A message edge's message
	// is its target event's trigger.
	kept := make(map[sim.MsgID]bool)
	for _, e := range a.g.Edges() {
		if e.Kind == causality.Message {
			kept[old.Events[e.To].Trigger] = true
		}
	}
	msgs := make([]sim.Message, len(old.Msgs))
	recvPosOf := make(map[sim.MsgID]int, len(old.Events))
	for pos, ev := range old.Events {
		recvPosOf[ev.Trigger] = pos
	}
	for i, m := range old.Msgs {
		nm := m
		if m.IsWakeup() {
			if pos, ok := recvPosOf[m.ID]; ok {
				nm.SendTime = newTime[pos]
				nm.RecvTime = newTime[pos]
			}
			msgs[i] = nm
			continue
		}
		dropped := !kept[m.ID]
		if pos, ok := recvPosOf[m.ID]; ok {
			nm.RecvTime = newTime[pos]
		}
		if sent := a.g.NodesOf(m.From); m.SendStep >= 0 && m.SendStep < len(sent) {
			nm.SendTime = newTime[sent[m.SendStep]]
		}
		if nm.RecvTime.Less(nm.SendTime) {
			if !dropped {
				return nil, fmt.Errorf("check: retime produced negative delay for kept message %d", i)
			}
			// The message is exempt from the model (faulty sender or
			// explicitly dropped): the assignment gives its endpoints no
			// consistent times, so clamp the send to keep the trace
			// well-formed. Exempt messages carry no delay constraints.
			nm.SendTime = nm.RecvTime
		}
		msgs[i] = nm
	}

	// Re-order events globally by (new time, original order) and rebuild.
	order := make([]int, len(old.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return newTime[order[i]].Less(newTime[order[j]])
	})
	events := make([]sim.Event, len(old.Events))
	for newPos, oldPos := range order {
		ev := old.Events[oldPos]
		ev.Time = newTime[oldPos]
		events[newPos] = ev
	}
	out, err := sim.Reassemble(old.N, events, msgs, old.Faulty)
	if err != nil {
		return nil, fmt.Errorf("check: retime: %w", err)
	}
	return out, nil
}
