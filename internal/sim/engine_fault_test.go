package sim

import (
	"strings"
	"testing"

	"repro/internal/rat"
)

// relay broadcasts one token on wake-up and re-broadcasts every token it
// receives whose hop budget is not exhausted, noting its own step count —
// enough traffic to exercise recovery, loss, and duplication, and a
// per-machine counter that distinguishes durable resumption from an
// amnesia respawn.
type relay struct {
	steps  int
	budget int
}

type token struct{ Hop int }

func (r *relay) Step(env *Env, msg Message) {
	r.steps++
	env.SetNote(r.steps)
	switch m := msg.Payload.(type) {
	case Wakeup:
		env.Broadcast(token{Hop: 0})
	case token:
		if m.Hop < r.budget {
			env.Broadcast(token{Hop: m.Hop + 1})
		}
	}
}

func relayConfig(n, budget int) Config {
	return Config{
		N:      n,
		Spawn:  func(p ProcessID) Process { return &relay{budget: budget} },
		Delays: ConstantDelay{D: rat.One},
	}
}

// TestRunFaultValidationErrors pins the setup-time validation of
// recovery schedules and the message-level fault layer: like scripted
// sends, a malformed configuration is an error before any step executes,
// with text naming the defect.
func TestRunFaultValidationErrors(t *testing.T) {
	iv := func(a, b int64) Interval { return Interval{From: rat.FromInt(a), Until: rat.FromInt(b)} }
	cases := []struct {
		name string
		mut  func(cfg *Config)
		want string
	}{
		{"crash and down", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: 2, Down: []Interval{iv(1, 2)}}}
		}, "sets both CrashAfter and a Down schedule"},
		{"negative interval start", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: NeverCrash, Down: []Interval{{From: rat.FromInt(-1), Until: rat.One}}}}
		}, "starts at negative time"},
		{"empty interval", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: NeverCrash, Down: []Interval{iv(2, 2)}}}
		}, "is empty"},
		{"overlapping intervals", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: NeverCrash, Down: []Interval{iv(1, 4), iv(3, 6)}}}
		}, "overlap or are unsorted"},
		{"unsorted intervals", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: NeverCrash, Down: []Interval{iv(5, 6), iv(1, 2)}}}
		}, "overlap or are unsorted"},
		{"unknown recovery policy", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: NeverCrash, Down: []Interval{iv(1, 2)}, Recovery: 7}}
		}, "unknown recovery policy"},
		{"unknown inflight policy", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {CrashAfter: NeverCrash, Down: []Interval{iv(1, 2)}, Inflight: 7}}
		}, "unknown in-flight policy"},
		{"amnesia byzantine", func(cfg *Config) {
			cfg.Faults = map[ProcessID]Fault{0: {
				CrashAfter: NeverCrash, Down: []Interval{iv(1, 2)}, Recovery: RecoverAmnesia,
				Byzantine: ProcessFunc(func(env *Env, msg Message) {}),
			}}
		}, "amnesia recovery of a Byzantine process"},
		{"drop probability", func(cfg *Config) {
			cfg.Net = &NetFaults{Drop: 1.5}
		}, "drop probability 1.5 outside [0, 1]"},
		{"dup probability", func(cfg *Config) {
			cfg.Net = &NetFaults{Dup: -0.25}
		}, "duplicate probability -0.25 outside [0, 1]"},
		{"spike probability", func(cfg *Config) {
			cfg.Net = &NetFaults{Spike: SpikeRule{Prob: 2}}
		}, "spike probability 2 outside [0, 1]"},
		{"negative spike", func(cfg *Config) {
			cfg.Net = &NetFaults{Spike: SpikeRule{Prob: 0.5, Extra: rat.FromInt(-1)}}
		}, "spike adds negative delay"},
		{"partition negative start", func(cfg *Config) {
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.FromInt(-1), Until: rat.One, A: []ProcessID{0}}}}
		}, "partition 0 starts at negative time"},
		{"partition empty interval", func(cfg *Config) {
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.One, Until: rat.One, A: []ProcessID{0}}}}
		}, "partition 0 interval is empty"},
		{"partition side A empty", func(cfg *Config) {
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.Zero, Until: rat.One}}}
		}, "partition side A is empty"},
		{"partition side out of range", func(cfg *Config) {
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.Zero, Until: rat.One, A: []ProcessID{9}}}}
		}, "side A has process 9 outside [0, 4)"},
		{"partition side listed twice", func(cfg *Config) {
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.Zero, Until: rat.One, A: []ProcessID{0, 0}}}}
		}, "side A lists process 0 twice"},
		{"side A covers everything", func(cfg *Config) {
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.Zero, Until: rat.One, A: []ProcessID{0, 1, 2, 3}}}}
		}, "covers every process"},
		{"partition cuts no link", func(cfg *Config) {
			cfg.Topology = Islands(4, 2)
			cfg.Net = &NetFaults{Partitions: []Partition{{From: rat.Zero, Until: rat.One, A: []ProcessID{0, 1}}}}
		}, "partition 0 cuts no link of the topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := relayConfig(4, 2)
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatalf("run accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRecoverDurableResumes pins the basic recovery contract: during the
// down interval receptions occur without steps, and after the interval
// the same machine resumes — its step counter (recorded via notes)
// continues where it left off.
func TestRecoverDurableResumes(t *testing.T) {
	cfg := relayConfig(3, 6)
	cfg.Faults = map[ProcessID]Fault{2: {
		CrashAfter: NeverCrash,
		Down:       []Interval{{From: rat.FromInt(2), Until: rat.FromInt(4)}},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Faulty[2] {
		t.Error("recoverable process 2 is not marked faulty")
	}
	var maxNote int
	sawDownReception, sawResumption := false, false
	for _, pos := range eventsOf(tr, 2) {
		ev := tr.Events[pos]
		down := !ev.Time.Less(rat.FromInt(2)) && ev.Time.Less(rat.FromInt(4))
		if down {
			if ev.Processed {
				t.Fatalf("event at %v processed during the down interval", ev.Time)
			}
			sawDownReception = true
		}
		if n, ok := ev.Note.(int); ok {
			if n <= maxNote {
				t.Fatalf("step counter went %d -> %d at %v: machine was respawned, want durable", maxNote, n, ev.Time)
			}
			maxNote = n
			if !ev.Time.Less(rat.FromInt(4)) {
				sawResumption = true
			}
		}
	}
	if !sawDownReception {
		t.Error("no reception during the down interval")
	}
	if !sawResumption {
		t.Error("process 2 took no step after its recovery")
	}
}

// TestRecoverAmnesiaRespawns pins the amnesia policy: the recovery
// wake-up at the interval's end respawns the machine, so its step counter
// restarts at 1 and its step indices restart at 0 — while event indices
// stay dense and monotone, keeping causality intact.
func TestRecoverAmnesiaRespawns(t *testing.T) {
	cfg := relayConfig(3, 8)
	cfg.Faults = map[ProcessID]Fault{2: {
		CrashAfter: NeverCrash,
		Down:       []Interval{{From: rat.FromInt(2), Until: rat.FromInt(4)}},
		Recovery:   RecoverAmnesia,
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	recovery := rat.FromInt(4)
	var beforeMax, firstAfter int
	for _, pos := range eventsOf(tr, 2) {
		ev := tr.Events[pos]
		n, ok := ev.Note.(int)
		if !ok {
			continue
		}
		if ev.Time.Less(recovery) {
			beforeMax = n
		} else if firstAfter == 0 {
			firstAfter = n
			if !ev.Time.Equal(recovery) {
				t.Errorf("first post-recovery step at %v, want the recovery wake-up at %v", ev.Time, recovery)
			}
			if _, isWake := tr.Msgs[ev.Trigger].Payload.(Wakeup); !isWake {
				t.Errorf("first post-recovery step triggered by %T, want the recovery wake-up", tr.Msgs[ev.Trigger].Payload)
			}
		}
	}
	if beforeMax < 1 {
		t.Fatal("process 2 took no step before going down")
	}
	if firstAfter != 1 {
		t.Fatalf("first post-recovery step counter = %d, want 1 (fresh machine)", firstAfter)
	}
}

// TestWakeupDeferredPastDownInterval pins the no-lost-wake-up rule: a
// down interval covering a process's start time defers the wake-up to the
// interval's end instead of swallowing it, under both in-flight policies.
func TestWakeupDeferredPastDownInterval(t *testing.T) {
	for _, inflight := range []InflightPolicy{InflightDrop, InflightHold} {
		cfg := relayConfig(3, 4)
		cfg.Faults = map[ProcessID]Fault{1: {
			CrashAfter: NeverCrash,
			Down:       []Interval{{From: rat.Zero, Until: rat.FromInt(3)}},
			Inflight:   inflight,
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		positions := eventsOf(tr, 1)
		if len(positions) == 0 {
			t.Fatal("process 1 recorded no events")
		}
		wake := tr.Events[positions[0]]
		if !wake.Time.Equal(rat.FromInt(3)) {
			t.Errorf("inflight=%v: wake-up at %v, want deferred to 3", inflight, wake.Time)
		}
		if !wake.Processed {
			t.Errorf("inflight=%v: deferred wake-up was not processed", inflight)
		}
	}
}

// TestInflightHoldDefersDeliveries pins the hold policy: a delivery whose
// receive time falls in a down interval is deferred to the interval's
// end and processed there, instead of arriving as an unprocessed
// reception.
func TestInflightHoldDefersDeliveries(t *testing.T) {
	down := Interval{From: rat.FromInt(2), Until: rat.FromInt(5)}
	run := func(inflight InflightPolicy) *Trace {
		cfg := relayConfig(3, 3)
		cfg.Faults = map[ProcessID]Fault{2: {
			CrashAfter: NeverCrash, Down: []Interval{down}, Inflight: inflight,
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}

	held := run(InflightHold)
	for _, pos := range eventsOf(held, 2) {
		ev := held.Events[pos]
		if down.Contains(ev.Time) {
			t.Fatalf("inflight=hold: delivery at %v inside the down interval", ev.Time)
		}
		if !ev.Processed {
			t.Fatalf("inflight=hold: unprocessed reception at %v", ev.Time)
		}
	}

	dropped := run(InflightDrop)
	sawUnprocessed := false
	for _, pos := range eventsOf(dropped, 2) {
		ev := dropped.Events[pos]
		if down.Contains(ev.Time) && !ev.Processed {
			sawUnprocessed = true
		}
	}
	if !sawUnprocessed {
		t.Error("inflight=drop: no unprocessed reception during the down interval")
	}
}

// TestNetFaultDrop pins the drop rule: with Drop = 1 every cross-process
// message is recorded as Dropped with RecvTime == SendTime, no receive
// event has one as its trigger, and the run still validates.
func TestNetFaultDrop(t *testing.T) {
	cfg := relayConfig(3, 4)
	cfg.Net = &NetFaults{Drop: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	droppedCount := 0
	for _, m := range tr.Msgs {
		if m.IsWakeup() || m.From == m.To {
			// Wake-ups and self-deliveries are not the network's to lose.
			if m.Dropped {
				t.Fatalf("local message %d marked dropped", m.ID)
			}
			continue
		}
		if !m.Dropped {
			t.Fatalf("message %d survived Drop = 1", m.ID)
		}
		if !m.RecvTime.Equal(m.SendTime) {
			t.Fatalf("dropped message %d has RecvTime %v != SendTime %v", m.ID, m.RecvTime, m.SendTime)
		}
		droppedCount++
	}
	if droppedCount == 0 {
		t.Fatal("no cross-process messages were sent")
	}
	// Every delivered event was triggered by a wake-up or a self-delivery.
	for _, ev := range tr.Events {
		if m := tr.Msgs[ev.Trigger]; !m.IsWakeup() && m.From != m.To {
			t.Fatalf("event at %v triggered by cross-process message %d under Drop = 1", ev.Time, m.ID)
		}
	}
}

// TestNetFaultDupAndSpike pins duplication and delay spikes: with
// Dup = 1 every delivered cross-process message appears twice (the
// duplicate drawing its own delay), and a certain spike shifts every
// cross-process delivery by Extra.
func TestNetFaultDupAndSpike(t *testing.T) {
	base := relayConfig(2, 1)
	noFault, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	dup := relayConfig(2, 1)
	dup.Net = &NetFaults{Dup: 1}
	dupRes, err := Run(dup)
	if err != nil {
		t.Fatal(err)
	}
	baseCross, dupCross := 0, 0
	for _, m := range noFault.Trace.Msgs {
		if !m.IsWakeup() && m.From != m.To {
			baseCross++
		}
	}
	for _, m := range dupRes.Trace.Msgs {
		if !m.IsWakeup() && m.From != m.To {
			dupCross++
		}
	}
	if dupCross <= baseCross {
		t.Fatalf("Dup = 1 sent %d cross-process messages, fault-free run sent %d", dupCross, baseCross)
	}

	spike := relayConfig(2, 1)
	spike.Net = &NetFaults{Spike: SpikeRule{Prob: 1, Extra: rat.FromInt(10)}}
	spikeRes, err := Run(spike)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spikeRes.Trace.Msgs {
		if m.IsWakeup() || m.From == m.To {
			continue
		}
		// ConstantDelay 1 + certain spike 10.
		if got := m.RecvTime.Sub(m.SendTime); !got.Equal(rat.FromInt(11)) {
			t.Fatalf("spiked delivery took %v, want 11", got)
		}
	}
}

// TestPartitionCutsCrossTraffic pins transient partitions: sends
// crossing the cut during its interval are dropped, sends within one
// side (and after the healing) are delivered.
func TestPartitionCutsCrossTraffic(t *testing.T) {
	cfg := relayConfig(4, 3)
	cfg.Net = &NetFaults{Partitions: []Partition{{
		From: rat.Zero, Until: rat.FromInt(2), A: []ProcessID{0, 1},
	}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	side := func(p ProcessID) int {
		if p <= 1 {
			return 1
		}
		return 2
	}
	sawHealedCrossing := false
	for _, m := range tr.Msgs {
		if m.IsWakeup() {
			continue
		}
		crossing := side(m.From) != side(m.To)
		active := m.SendTime.Less(rat.FromInt(2))
		if crossing && active && !m.Dropped {
			t.Fatalf("message %d crossed the active partition at %v", m.ID, m.SendTime)
		}
		if (!crossing || !active) && m.Dropped {
			t.Fatalf("message %d dropped outside the partition (%d->%d at %v)", m.ID, m.From, m.To, m.SendTime)
		}
		if crossing && !active {
			sawHealedCrossing = true
		}
	}
	if !sawHealedCrossing {
		t.Error("no cross-side traffic after the partition healed")
	}
}

// TestNetFaultDeterminismAndSinkEquivalence pins the determinism
// contract of the full fault plane: identical configs produce identical
// stream digests, and the digest (with totals and truncation) is
// invariant across retention modes full/window/none.
func TestNetFaultDeterminismAndSinkEquivalence(t *testing.T) {
	build := func() Config {
		cfg := relayConfig(5, 6)
		cfg.Delays = UniformDelay{Min: rat.One, Max: rat.FromInt(2)}
		cfg.Seed = 7
		cfg.Net = &NetFaults{
			Drop: 0.2, Dup: 0.15, Spike: SpikeRule{Prob: 0.1, Extra: rat.FromInt(3)},
			Partitions: []Partition{{From: rat.FromInt(2), Until: rat.FromInt(4), A: []ProcessID{0, 1}}},
		}
		cfg.Faults = map[ProcessID]Fault{4: {
			CrashAfter: NeverCrash,
			Down:       []Interval{{From: rat.One, Until: rat.FromInt(3)}},
			Recovery:   RecoverAmnesia,
			Inflight:   InflightHold,
		}}
		return cfg
	}
	engine := NewEngine()
	full, err := engine.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if full.Trace.TotalEvents() == 0 {
		t.Fatal("run recorded no events")
	}
	again, err := engine.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if again.Trace.StreamHash() != full.Trace.StreamHash() {
		t.Fatalf("same config, different stream hashes: %016x vs %016x",
			again.Trace.StreamHash(), full.Trace.StreamHash())
	}
	for _, sink := range []Sink{RetainWindow(16), RetainNone()} {
		cfg := build()
		cfg.Sink = sink
		res, err := engine.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bt := res.Trace
		if bt.TotalEvents() != full.Trace.TotalEvents() || bt.TotalMsgs() != full.Trace.TotalMsgs() {
			t.Fatalf("%v: totals (%d, %d), want (%d, %d)", sink.Retention().Mode,
				bt.TotalEvents(), bt.TotalMsgs(), full.Trace.TotalEvents(), full.Trace.TotalMsgs())
		}
		if bt.StreamHash() != full.Trace.StreamHash() {
			t.Fatalf("%v: stream hash %016x, want %016x", sink.Retention().Mode,
				bt.StreamHash(), full.Trace.StreamHash())
		}
		if res.Truncated != full.Truncated {
			t.Fatalf("%v: truncated %v, want %v", sink.Retention().Mode, res.Truncated, full.Truncated)
		}
	}
}
