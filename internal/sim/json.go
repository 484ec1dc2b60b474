package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"

	"repro/internal/rat"
)

// JSON serialization of traces, used by cmd/abcsim (export) and
// cmd/abccheck (import). Times are serialized as exact rational strings
// ("3/2"); payloads are rendered to strings with %v — sufficient for all
// admissibility checking, which depends only on the communication
// structure, never on payload contents.
//
// Payloads holding pointers (e.g. lockstep round messages) would render
// heap addresses, making serialization — and therefore Trace.Hash and
// cross-run trace diffs — depend on allocation accidents. renderValue
// masks hex addresses, trading the (meaningless) address text for
// deterministic output.

// addrPattern matches %v-rendered pointer addresses.
var addrPattern = regexp.MustCompile(`0x[0-9a-f]+`)

// renderValue renders a payload or note deterministically: like %v, but
// with heap addresses replaced by "0xPTR".
func renderValue(v any) string {
	s := fmt.Sprintf("%v", v)
	if strings.Contains(s, "0x") {
		s = addrPattern.ReplaceAllString(s, "0xPTR")
	}
	return s
}

type jsonTrace struct {
	N      int           `json:"n"`
	Faulty []bool        `json:"faulty"`
	Events []jsonEvent   `json:"events"`
	Msgs   []jsonMessage `json:"messages"`
}

type jsonEvent struct {
	Proc      int    `json:"proc"`
	Index     int    `json:"index"`
	Time      string `json:"time"`
	Trigger   int    `json:"trigger"`
	Processed bool   `json:"processed"`
	Note      string `json:"note,omitempty"`
}

type jsonMessage struct {
	ID       int    `json:"id"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	SendStep int    `json:"sendStep"`
	SendTime string `json:"sendTime"`
	RecvTime string `json:"recvTime"`
	Payload  string `json:"payload,omitempty"`
	Wakeup   bool   `json:"wakeup,omitempty"`
	Dropped  bool   `json:"dropped,omitempty"`
}

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	jt := jsonTrace{N: t.N, Faulty: t.Faulty}
	jt.Events = make([]jsonEvent, len(t.Events))
	for i, ev := range t.Events {
		note := ""
		if ev.Note != nil {
			note = renderValue(ev.Note)
		}
		jt.Events[i] = jsonEvent{
			Proc: int(ev.Proc), Index: ev.Index, Time: ev.Time.String(),
			Trigger: int(ev.Trigger), Processed: ev.Processed, Note: note,
		}
	}
	jt.Msgs = make([]jsonMessage, len(t.Msgs))
	for i, m := range t.Msgs {
		payload := ""
		if m.Payload != nil {
			payload = renderValue(m.Payload)
		}
		jt.Msgs[i] = jsonMessage{
			ID: int(m.ID), From: int(m.From), To: int(m.To), SendStep: m.SendStep,
			SendTime: m.SendTime.String(), RecvTime: m.RecvTime.String(),
			Payload: payload, Wakeup: m.IsWakeup(), Dropped: m.Dropped,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// ReadJSON deserializes a trace written by WriteJSON and validates it.
// Payloads and notes come back as strings.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("sim: decoding trace: %w", err)
	}
	events := make([]Event, len(jt.Events))
	msgs := make([]Message, len(jt.Msgs))
	for i, je := range jt.Events {
		tm, err := rat.Parse(je.Time)
		if err != nil {
			return nil, fmt.Errorf("sim: event %d time: %w", i, err)
		}
		var note any
		if je.Note != "" {
			note = je.Note
		}
		events[i] = Event{
			Proc: ProcessID(je.Proc), Index: je.Index, Time: tm,
			Trigger: MsgID(je.Trigger), Processed: je.Processed, Note: note,
		}
	}
	for i, jm := range jt.Msgs {
		st, err := rat.Parse(jm.SendTime)
		if err != nil {
			return nil, fmt.Errorf("sim: message %d send time: %w", i, err)
		}
		rt, err := rat.Parse(jm.RecvTime)
		if err != nil {
			return nil, fmt.Errorf("sim: message %d recv time: %w", i, err)
		}
		var payload any
		if jm.Payload != "" {
			payload = jm.Payload
		}
		if jm.Wakeup {
			payload = Wakeup{}
		}
		msgs[i] = Message{
			ID: MsgID(jm.ID), From: ProcessID(jm.From), To: ProcessID(jm.To),
			SendStep: jm.SendStep, SendTime: st, RecvTime: rt, Payload: payload,
			Dropped: jm.Dropped,
		}
	}
	return Reassemble(jt.N, events, msgs, jt.Faulty)
}
