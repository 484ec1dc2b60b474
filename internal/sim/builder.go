package sim

import (
	"fmt"

	"repro/internal/rat"
)

// TraceBuilder constructs traces by hand, event by event. It exists so that
// the exact space–time diagrams of the paper's figures (Figs. 1–5 and 8–10)
// can be stated directly, with explicit occurrence times and message
// patterns, rather than coaxed out of a scheduler.
//
// Usage: Wake each process, then chain Msg calls. Each Msg names an
// existing sending event (process, event index) and appends a new receive
// event at the destination. Build validates and returns the trace.
type TraceBuilder struct {
	n      int
	events []Event
	msgs   []Message
	faulty []bool
	pos    [][]int // pos[p][i] is the position in events of p's i-th event
	err    error
}

// NewTraceBuilder returns a builder for an n-process system.
func NewTraceBuilder(n int) *TraceBuilder {
	if n <= 0 {
		panic(fmt.Sprintf("sim: NewTraceBuilder(%d)", n))
	}
	return &TraceBuilder{
		n:      n,
		faulty: make([]bool, n),
		pos:    make([][]int, n),
	}
}

// SetFaulty marks p as faulty; its sent messages will be dropped from the
// execution graph.
func (b *TraceBuilder) SetFaulty(p ProcessID) *TraceBuilder {
	b.faulty[p] = true
	return b
}

// Wake appends process p's wake-up event at time t. It must precede any
// other event of p.
func (b *TraceBuilder) Wake(p ProcessID, t Time) *TraceBuilder {
	if b.err != nil {
		return b
	}
	if len(b.pos[p]) != 0 {
		b.err = fmt.Errorf("sim: Wake(p%d) after %d events", p, len(b.pos[p]))
		return b
	}
	id := MsgID(len(b.msgs))
	b.msgs = append(b.msgs, Message{
		ID: id, From: External, To: p, SendStep: SendStepExternal,
		SendTime: t, RecvTime: t, Payload: Wakeup{},
	})
	b.appendEvent(p, t, id)
	return b
}

// WakeAll wakes every process at time t.
func (b *TraceBuilder) WakeAll(t Time) *TraceBuilder {
	for p := ProcessID(0); int(p) < b.n; p++ {
		b.Wake(p, t)
	}
	return b
}

// Msg appends a message from the existing event (from, fromIdx) to process
// `to`, received at time recvT, creating to's next receive event. The send
// time is the sending event's time. Payload may be nil.
func (b *TraceBuilder) Msg(from ProcessID, fromIdx int, to ProcessID, recvT Time, payload any) *TraceBuilder {
	if b.err != nil {
		return b
	}
	if fromIdx < 0 || fromIdx >= len(b.pos[from]) {
		b.err = fmt.Errorf("sim: Msg from nonexistent event p%d/%d", from, fromIdx)
		return b
	}
	sendT := b.events[b.pos[from][fromIdx]].Time
	if recvT.Less(sendT) {
		b.err = fmt.Errorf("sim: message from p%d/%d received at %v before sent at %v", from, fromIdx, recvT, sendT)
		return b
	}
	if len(b.pos[to]) == 0 {
		b.err = fmt.Errorf("sim: message to p%d before its wake-up", to)
		return b
	}
	if last := b.events[b.pos[to][len(b.pos[to])-1]].Time; recvT.Less(last) {
		b.err = fmt.Errorf("sim: receive at p%d at %v precedes its last event at %v", to, recvT, last)
		return b
	}
	id := MsgID(len(b.msgs))
	b.msgs = append(b.msgs, Message{
		ID: id, From: from, To: to, SendStep: fromIdx,
		SendTime: sendT, RecvTime: recvT, Payload: payload,
	})
	b.appendEvent(to, recvT, id)
	return b
}

// MsgAt is Msg with integer times, for brevity in tests.
func (b *TraceBuilder) MsgAt(from ProcessID, fromIdx int, to ProcessID, recvT int64, payload any) *TraceBuilder {
	return b.Msg(from, fromIdx, to, rat.FromInt(recvT), payload)
}

func (b *TraceBuilder) appendEvent(p ProcessID, t Time, trigger MsgID) {
	b.pos[p] = append(b.pos[p], len(b.events))
	b.events = append(b.events, Event{
		Proc: p, Index: len(b.pos[p]) - 1, Time: t, Trigger: trigger, Processed: true,
	})
}

// Build finalizes and validates the trace.
func (b *TraceBuilder) Build() (*Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	return Reassemble(b.n, b.events, b.msgs, b.faulty)
}

// MustBuild is Build, panicking on error. For tests and examples.
func (b *TraceBuilder) MustBuild() *Trace {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
