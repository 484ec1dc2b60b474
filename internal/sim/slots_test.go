package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rat"
)

// inflightSink is a sink of any retention that tracks the in-flight
// high-water mark: messages that will be delivered, minus deliveries so
// far.
type inflightSink struct {
	ret                   Retention
	sent, delivered, peak int
}

func (s *inflightSink) Retention() Retention { return s.ret }
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

// queued counts the deliveries a queue's wheel, current run and overflow
// heap hold, independently of its slot store.
func queued(q *bucketQueue) int {
	n := len(q.cur) - q.curIdx + len(q.over)
	for _, b := range q.buckets {
		n += len(b)
	}
	return n
}

// TestSlotStoreTracksInflight pins the delivery queue's store to the
// in-flight population under every retention mode: on a sparse ring
// broadcast that keeps relaying, its capacity never exceeds the in-flight
// high-water mark rounded up to one chunk — far below the run's message
// total — under every fault that changes what is in flight (drop, dup,
// partition, held deliveries across recovery).
//
// After the run the occupied slots are exactly the deliveries the queue
// still holds (sent = delivered + dropped + pending, at the storage
// layer): none for a drained run, some for a truncated one. And every
// slot is zero once the run is over, so the pooled store pins no payload
// between runs.
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
	retentions := []Retention{{Mode: RetainFullMode}, {Mode: RetainWindowMode, Window: 1024}, {Mode: RetainNoneMode}}
	for _, ret := range retentions {
		for _, tc := range cases {
			name := fmt.Sprintf("%s/%v", tc.name, ret)
			maxEvents := 1 << 20
			if tc.truncated {
				maxEvents = 140000
			}
			engine := NewEngine() // fresh: the store's chunks are pooled across runs
			sink := &inflightSink{ret: ret}
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
				t.Fatalf("%s: %v", name, err)
			}
			if res.Truncated != tc.truncated {
				t.Fatalf("%s: truncated = %v", name, res.Truncated)
			}
			store := &engine.queue.store
			capacity := len(store.chunks) * slotChunk
			if bound := (sink.peak + slotChunk - 1) / slotChunk * slotChunk; capacity > bound {
				t.Errorf("%s: store capacity %d exceeds in-flight peak %d rounded up to a chunk (%d)",
					name, capacity, sink.peak, bound)
			}
			if total := res.Trace.TotalMsgs(); capacity > total/8 {
				t.Errorf("%s: store capacity %d is not well below the %d messages sent", name, capacity, total)
			}
			if got, want := store.occupied(), queued(&engine.queue); got != want {
				t.Errorf("%s: %d occupied slots, queue holds %d deliveries", name, got, want)
			}
			if got, want := store.occupied(), sink.sent-sink.delivered; got != want {
				t.Errorf("%s: %d occupied slots, %d messages sent and not delivered", name, got, want)
			}
			if tc.truncated == (store.occupied() == 0) {
				t.Errorf("%s: truncated = %v with %d messages in flight", name, tc.truncated, store.occupied())
			}
			// The pooled store pins no payload once Run returns.
			for c, chunk := range store.chunks {
				for i := range chunk {
					if !reflect.ValueOf(chunk[i]).IsZero() {
						t.Fatalf("%s: slot %d holds %+v after the run", name, c*slotChunk+i, chunk[i])
					}
				}
			}
		}
	}
}
