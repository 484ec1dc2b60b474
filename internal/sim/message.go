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
	// eventPos[p][i] is the position in Events of process p's i-th receive
	// event. Dense per-process rows replace the former (proc, index) hash
	// map: the engine appends one entry per recorded event, and EventAt is
	// two bounds checks and a load. int32 positions are ample — traces are
	// memory-bound far below 2^31 events. Bounded-retention traces do not
	// maintain it (positions slide).
	eventPos [][]int32

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
// complete traces may feed causality.Build, Hash, WriteJSON, and the
// per-process index accessors.
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
// streamDigest). It is maintained incrementally under bounded retention
// and computed on demand for complete traces, so runs of the same Config
// under different retention modes hash equal. It is unrelated to Hash,
// which digests the canonical JSON of a complete trace including
// payloads.
func (t *Trace) StreamHash() uint64 {
	if t.mode != RetainFullMode {
		return t.digest.sum()
	}
	var d streamDigest
	d.init()
	for i := range t.Events {
		d.foldEvent(&t.Events[i])
	}
	for i := range t.Msgs {
		d.foldMessage(&t.Msgs[i])
	}
	return d.sum()
}

// EventAt returns the position in Events of process p's index-th receive
// event, or -1 if it does not exist.
func (t *Trace) EventAt(p ProcessID, index int) int {
	if p < 0 || int(p) >= len(t.eventPos) {
		return -1
	}
	row := t.eventPos[p]
	if index < 0 || index >= len(row) {
		return -1
	}
	return int(row[index])
}

// indexEvents rebuilds eventPos from Events. Entries that are out of range
// or not dense per process are skipped; Validate reports them.
func (t *Trace) indexEvents() {
	if t.N <= 0 {
		return
	}
	t.eventPos = make([][]int32, t.N)
	for i, ev := range t.Events {
		if ev.Proc < 0 || int(ev.Proc) >= t.N || ev.Index != len(t.eventPos[ev.Proc]) {
			continue
		}
		t.eventPos[ev.Proc] = append(t.eventPos[ev.Proc], int32(i))
	}
}

// EventsOf returns the positions (into Events) of all receive events at p,
// in order. With the dense per-process index present (every engine- or
// builder-produced trace) it is O(events of p) instead of an O(E) scan;
// bare trace shells without the index fall back to scanning.
func (t *Trace) EventsOf(p ProcessID) []int {
	if t.eventPos != nil {
		if p < 0 || int(p) >= len(t.eventPos) {
			return nil
		}
		row := t.eventPos[p]
		if len(row) == 0 {
			return nil
		}
		out := make([]int, len(row))
		for i, pos := range row {
			out[i] = int(pos)
		}
		return out
	}
	var out []int
	for i, ev := range t.Events {
		if ev.Proc == p {
			out = append(out, i)
		}
	}
	return out
}

// StepCount returns the number of computing steps process p executed
// (receive events with Processed == true). Like EventsOf it walks the
// dense per-process index row when present instead of all of Events.
func (t *Trace) StepCount(p ProcessID) int {
	n := 0
	if t.eventPos != nil {
		if p < 0 || int(p) >= len(t.eventPos) {
			return 0
		}
		for _, pos := range t.eventPos[p] {
			if t.Events[pos].Processed {
				n++
			}
		}
		return n
	}
	for _, ev := range t.Events {
		if ev.Proc == p && ev.Processed {
			n++
		}
	}
	return n
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

// MaxTime returns the occurrence time of the last event, or 0 for an empty
// trace.
func (t *Trace) MaxTime() Time {
	var max Time
	for _, ev := range t.Events {
		if ev.Time.Greater(max) {
			max = ev.Time
		}
	}
	return max
}

// Reassemble builds a Trace from raw parts and validates it. It is used by
// consumers that transform traces (e.g. the Theorem 9 retiming in
// internal/check) and must therefore rebuild the event index.
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
	t.indexEvents()
	return t, nil
}

// Validate checks internal consistency of the trace: event indices are
// dense and per-process increasing, message endpoints are in range, a
// correct sender's delivered message names one of its events as the
// sending step, message recv times are not before send times, and
// triggers resolve. It is used by tests and by cmd/abccheck when loading
// external traces, and allocates O(N) only once N is known to match
// len(Faulty).
func (t *Trace) Validate() error {
	if t.N <= 0 {
		return fmt.Errorf("sim: trace has N = %d", t.N)
	}
	if len(t.Faulty) != t.N {
		return fmt.Errorf("sim: Faulty has length %d, want %d", len(t.Faulty), t.N)
	}
	next := make([]int, t.N)
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
