package sim

import (
	"testing"

	"repro/internal/rat"
)

// inflightSink is a RetainNone sink that tracks the in-flight high-water
// mark: messages that will be delivered, minus deliveries so far.
type inflightSink struct {
	sent, delivered, peak int
}

func (s *inflightSink) Retention() Retention { return Retention{Mode: RetainNoneMode} }
func (s *inflightSink) Event(*Event)         { s.delivered++ }
func (s *inflightSink) Message(m *Message) {
	if !m.Dropped {
		s.sent++
		s.peak = max(s.peak, s.sent-s.delivered)
	}
}

// relaySpawn broadcasts on the wake-up and then relays every received
// message to the next process on the ring for its first steps steps, so
// the in-flight population stays near 2N while the run sends ~steps·N.
func relaySpawn(steps int) func(ProcessID) Process {
	return func(ProcessID) Process {
		return ProcessFunc(func(env *Env, msg Message) {
			switch i := env.StepIndex(); {
			case i == 0:
				env.Broadcast(i)
			case i < steps:
				env.Send((env.Self()+1)%ProcessID(env.N()), i)
			}
		})
	}
}

// TestSlotStoreTracksInflight pins the bounded-retention store to the
// in-flight population: on a sparse ring broadcast that keeps relaying,
// its capacity never exceeds the in-flight high-water mark rounded up to
// one chunk — far below the run's message total — under every fault that
// changes what is in flight (drop, dup, partition, held deliveries across
// recovery).
//
// After the run the occupied slots are exactly the deliveries the queue
// still holds (sent = delivered + dropped + pending, at the storage
// layer): none for a drained run, the queue's length for a truncated one.
func TestSlotStoreTracksInflight(t *testing.T) {
	const n = 5000
	half := make([]ProcessID, n/2)
	for i := range half {
		half[i] = ProcessID(i)
	}
	down := func(policy RecoveryPolicy) map[ProcessID]Fault {
		faults := make(map[ProcessID]Fault)
		for p := ProcessID(0); p < n; p += 97 {
			faults[p] = Fault{
				CrashAfter: NeverCrash,
				Down:       []Interval{{From: rat.FromInt(2), Until: rat.FromInt(6)}},
				Recovery:   policy,
				Inflight:   InflightHold,
			}
		}
		return faults
	}
	cases := []struct {
		name      string
		net       *NetFaults
		faults    map[ProcessID]Fault
		truncated bool // stop at 140000 events, mid-run
	}{
		{name: "plain"},
		{name: "drop", net: &NetFaults{Drop: 0.05}},
		{name: "dup", net: &NetFaults{Dup: 0.05}},
		{name: "partition", net: &NetFaults{Partitions: []Partition{{From: rat.FromInt(2), Until: rat.FromInt(5), A: half}}}},
		{name: "recover-durable-hold", faults: down(RecoverDurable)},
		{name: "recover-amnesia-hold", faults: down(RecoverAmnesia)},
		{name: "truncated", net: &NetFaults{Dup: 0.05}, truncated: true},
	}
	for _, tc := range cases {
		maxEvents := 1 << 20
		if tc.truncated {
			maxEvents = 140000
		}
		engine := NewEngine() // fresh: the store's chunks are pooled across runs
		sink := &inflightSink{}
		res, err := engine.Run(Config{
			N:         n,
			Spawn:     relaySpawn(30),
			Delays:    UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Topology:  Ring(n),
			Seed:      3,
			Sink:      sink,
			Net:       tc.net,
			Faults:    tc.faults,
			MaxEvents: maxEvents,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Truncated != tc.truncated {
			t.Fatalf("%s: truncated = %v", tc.name, res.Truncated)
		}
		store := &engine.slots
		capacity := len(store.chunks) * slotChunk
		if bound := (sink.peak + slotChunk - 1) / slotChunk * slotChunk; capacity > bound {
			t.Errorf("%s: store capacity %d exceeds in-flight peak %d rounded up to a chunk (%d)",
				tc.name, capacity, sink.peak, bound)
		}
		if total := res.Trace.TotalMsgs(); capacity > total/8 {
			t.Errorf("%s: store capacity %d is not well below the %d messages sent", tc.name, capacity, total)
		}
		if got, want := store.occupied(), engine.queue.len(); got != want {
			t.Errorf("%s: %d occupied slots, queue holds %d deliveries", tc.name, got, want)
		}
		if tc.truncated && engine.queue.len() == 0 {
			t.Errorf("%s: truncated run left nothing in flight", tc.name)
		}
	}
}
