// Package sim is a deterministic discrete-event simulator for asynchronous
// message-driven distributed systems, faithful to the system model of
// Section 2 of the ABC paper:
//
//   - every process is a state machine executing atomic, zero-time computing
//     steps, each triggered by the reception of exactly one message;
//   - an external wake-up message initiates each process's very first step,
//     and that step occurs before any message from another process is
//     received;
//   - message delays are finite but otherwise arbitrary, supplied by a
//     pluggable DelayPolicy (including zero and growing delays);
//   - up to f processes may be faulty: crash faults stop a process's
//     computing steps while receive events keep occurring at it (the paper's
//     distinction between reception, which the network controls, and
//     processing, which the receiver controls), and Byzantine faults replace
//     the process's state machine with arbitrary behavior.
//
// The simulator records a complete Trace of receive events and messages from
// which internal/causality reconstructs the execution graph G_α of
// Definition 1.
package sim

import (
	"fmt"

	"repro/internal/rat"
)

// Time is a point in simulated real time. Algorithms in the ABC model are
// time-free and never observe Time; it exists so that admissibility checkers
// for timed models (Θ-Model, ParSync) and real-time cuts (Theorem 3) can be
// exact.
type Time = rat.Rat

// ProcessID identifies a process, 0 <= id < N.
type ProcessID int

// External is the pseudo-sender of wake-up messages (the externally
// triggered initial computing step of Section 2).
const External ProcessID = -1

// MsgID indexes a message within a Trace.
type MsgID int

// SendStep values with special meaning.
const (
	// SendStepExternal marks wake-up messages, which have no sending step.
	SendStepExternal = -1
	// SendStepScripted marks messages injected by a Byzantine script rather
	// than by a computing step.
	SendStepScripted = -2
)

// Message is a single point-to-point message, either in transit or
// delivered. Wake-up messages have From == External.
type Message struct {
	ID       MsgID
	From     ProcessID
	To       ProcessID
	SendStep int  // index of the sender's triggering event; see SendStep* consts
	SendTime Time // when the sending step occurred
	RecvTime Time // when the receive event occurred at To
	Payload  any
	// Dropped marks a message the network lost (Config.Net drop rule or an
	// active partition). Dropped messages carry RecvTime == SendTime, are
	// never delivered — no receive event has one as its trigger — and are
	// invisible to the causality graph; they are recorded so the trace
	// commits to the loss pattern (Hash and StreamHash both fold it).
	Dropped bool
}

// IsWakeup reports whether m is an external wake-up message.
func (m Message) IsWakeup() bool { return m.From == External }

// Event is a receive event, in the sense of Section 2: the reception of one
// message at one process. For a correct process the receive event and the
// computing step it triggers coincide (Processed == true); for a crashed
// process the reception still occurs but no step is executed
// (Processed == false).
type Event struct {
	Proc    ProcessID
	Index   int // per-process receive-event sequence number; 0 is the wake-up
	Time    Time
	Trigger MsgID
	// Processed is false when the receiving process had already crashed and
	// therefore executed no computing step for this reception.
	Processed bool
	// Note is an algorithm-supplied annotation recorded via Env.SetNote
	// during the triggered step, e.g. the clock value after executing
	// Algorithm 1's rules. It is nil when unset.
	Note any
}

// Trace is the record of one execution: receive events in their global
// delivery order and messages. Under the default full retention
// (Config.Sink nil or RetainAll) it is complete — every event and
// message, the input to causality.Build. Under bounded retention
// (RetainWindow, RetainNone) Events and Msgs hold only the retained
// suffix (or nothing) while TotalEvents/TotalMsgs/StreamHash still
// describe the whole run; consumers must go through EventByPos/TriggerOf
// instead of indexing the slices absolutely, and Complete reports which
// regime a trace is in.
type Trace struct {
	N      int
	Events []Event
	Msgs   []Message
	// Faulty[p] is true when process p was configured with a fault
	// (crash or Byzantine).
	Faulty []bool

	// Bounded-retention bookkeeping; zero values describe a complete
	// trace, so hand-built and reassembled traces need no setup. Under
	// RetainWindowMode, Events is the sliding window and Msgs is parallel
	// to it — Msgs[i] is the trigger message of Events[i], not the
	// ID-indexed message table — with firstEvent the absolute position of
	// Events[0]. Under RetainNoneMode both slices stay empty.
	mode        RetentionMode
	firstEvent  int
	totalEvents int
	totalMsgs   int
	digest      streamDigest
}

// Complete reports whether the trace retains the full execution record —
// Events and Msgs hold everything and may be indexed absolutely. Only
// complete traces may feed causality.Build, Hash and WriteJSON.
func (t *Trace) Complete() bool { return t.mode == RetainFullMode }

// Retention returns the trace's retention mode.
func (t *Trace) Retention() RetentionMode { return t.mode }

// TotalEvents returns the number of receive events the run recorded,
// including any discarded by bounded retention.
func (t *Trace) TotalEvents() int {
	if t.mode == RetainFullMode {
		return len(t.Events)
	}
	return t.totalEvents
}

// TotalMsgs returns the number of messages the run sent (wake-ups
// included), including any not retained.
func (t *Trace) TotalMsgs() int {
	if t.mode == RetainFullMode {
		return len(t.Msgs)
	}
	return t.totalMsgs
}

// FirstRetained returns the absolute position of the earliest retained
// event: 0 for complete traces, the window start under window retention.
// (Under RetainNoneMode Events is always empty, so the value is unused.)
func (t *Trace) FirstRetained() int {
	if t.mode == RetainFullMode {
		return 0
	}
	return t.firstEvent
}

// EventByPos returns the event at absolute trace position pos, with
// ok = false when pos is out of range or the event was discarded by
// bounded retention.
func (t *Trace) EventByPos(pos int) (Event, bool) {
	i := pos - t.FirstRetained()
	if i < 0 || i >= len(t.Events) {
		return Event{}, false
	}
	return t.Events[i], true
}

// TriggerOf returns the trigger message of the event at absolute trace
// position pos, with ok = false when the event or its message is not
// retained (or the trigger dangles).
func (t *Trace) TriggerOf(pos int) (Message, bool) {
	i := pos - t.FirstRetained()
	if i < 0 || i >= len(t.Events) {
		return Message{}, false
	}
	if t.mode == RetainWindowMode {
		// Msgs is parallel to Events under window retention.
		if i >= len(t.Msgs) {
			return Message{}, false
		}
		return t.Msgs[i], true
	}
	tr := t.Events[i].Trigger
	if tr < 0 || int(tr) >= len(t.Msgs) {
		return Message{}, false
	}
	return t.Msgs[tr], true
}

// StreamHash returns the FNV-64a digest of the run's event and message
// streams (structure and exact times; payloads and notes excluded — see
// streamDigest), so runs of the same Config under different retention
// modes hash equal. Engine.Run folds every event and message as it
// records it; Reassemble (and with it TraceBuilder.Build and ReadJSON)
// folds the complete record once, so a built or read-back trace hashes
// like the run that recorded the same streams. A trace made any other
// way, such as a Trace literal, has folded nothing and returns 0. It is
// unrelated to Hash, which digests the canonical JSON of a complete trace
// including payloads.
func (t *Trace) StreamHash() uint64 {
	if t.digest == (streamDigest{}) {
		return 0
	}
	return t.digest.sum()
}

// CorrectProcesses returns the IDs of all non-faulty processes.
func (t *Trace) CorrectProcesses() []ProcessID {
	var out []ProcessID
	for p := 0; p < t.N; p++ {
		if !t.Faulty[p] {
			out = append(out, ProcessID(p))
		}
	}
	return out
}

// Reassemble builds a complete Trace from raw parts, validates it and
// folds its stream digest (StreamHash). TraceBuilder.Build and ReadJSON
// end here, as do consumers that transform traces (e.g. the Theorem 9
// retiming in internal/check).
func Reassemble(n int, events []Event, msgs []Message, faulty []bool) (*Trace, error) {
	t := &Trace{
		N:      n,
		Events: events,
		Msgs:   msgs,
		Faulty: faulty,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.digest.init()
	for i := range events {
		t.digest.foldEvent(&events[i])
	}
	for i := range msgs {
		t.digest.foldMessage(&msgs[i])
	}
	return t, nil
}

// Validate checks internal consistency of the trace: event indices are
// dense and per-process increasing, message endpoints are in range, a
// correct sender's delivered message names one of its events as the
// sending step, message recv times are not before send times, and
// triggers resolve, each message triggering at most one event. It is used
// by tests and by cmd/abccheck when loading external traces, and allocates
// O(N) only once N is known to match len(Faulty).
func (t *Trace) Validate() error {
	if t.N <= 0 {
		return fmt.Errorf("sim: trace has N = %d", t.N)
	}
	if len(t.Faulty) != t.N {
		return fmt.Errorf("sim: Faulty has length %d, want %d", len(t.Faulty), t.N)
	}
	next := make([]int, t.N)
	received := make([]bool, len(t.Msgs))
	for i, ev := range t.Events {
		if ev.Proc < 0 || int(ev.Proc) >= t.N {
			return fmt.Errorf("sim: event %d has process %d out of range", i, ev.Proc)
		}
		if ev.Index != next[ev.Proc] {
			return fmt.Errorf("sim: event %d at p%d has index %d, want %d", i, ev.Proc, ev.Index, next[ev.Proc])
		}
		next[ev.Proc]++
		if ev.Trigger < 0 || int(ev.Trigger) >= len(t.Msgs) {
			return fmt.Errorf("sim: event %d has dangling trigger %d", i, ev.Trigger)
		}
		if received[ev.Trigger] {
			return fmt.Errorf("sim: event %d receives message %d a second time", i, ev.Trigger)
		}
		received[ev.Trigger] = true
		m := t.Msgs[ev.Trigger]
		if m.To != ev.Proc {
			return fmt.Errorf("sim: event %d at p%d triggered by message to p%d", i, ev.Proc, m.To)
		}
		if m.Dropped {
			return fmt.Errorf("sim: event %d triggered by dropped message %d", i, ev.Trigger)
		}
		if !m.RecvTime.Equal(ev.Time) {
			return fmt.Errorf("sim: event %d time %v != message recv time %v", i, ev.Time, m.RecvTime)
		}
	}
	for i, m := range t.Msgs {
		if int(m.ID) != i {
			return fmt.Errorf("sim: message %d has ID %d", i, m.ID)
		}
		if m.To < 0 || int(m.To) >= t.N {
			return fmt.Errorf("sim: message %d has receiver %d out of range", i, m.To)
		}
		if m.IsWakeup() {
			continue
		}
		if m.From < 0 || int(m.From) >= t.N {
			return fmt.Errorf("sim: message %d has sender %d out of range", i, m.From)
		}
		if m.RecvTime.Less(m.SendTime) {
			return fmt.Errorf("sim: message %d received at %v before sent at %v", i, m.RecvTime, m.SendTime)
		}
	}
	// A delivered message from a correct sender becomes a graph edge from
	// its sending step, so that step must be one of the sender's events.
	for i, ev := range t.Events {
		m := t.Msgs[ev.Trigger]
		if !m.IsWakeup() && !t.Faulty[m.From] && m.SendStep != SendStepScripted && (m.SendStep < 0 || m.SendStep >= next[m.From]) {
			return fmt.Errorf("sim: event %d: message %d names send step %d of p%d, which has %d events", i, m.ID, m.SendStep, m.From, next[m.From])
		}
	}
	return nil
}
