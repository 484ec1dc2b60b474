package sim

import (
	"bytes"
	"testing"

	"repro/internal/rat"
)

// FuzzEngineConfig drives the engine with broadcast processes over
// arbitrary configurations: system sizes 1..4100, which span the delivery
// queue's three smallest wheels (past 64 processes the dense topologies
// become rings), constant and uniform delays (zero and negative bounds
// included), a link-dependent delay of 1 or 1 + 2^−60 whose distinct
// receive times share float keys, so the delivery queue orders them by
// reading the exact times from the message store (Trace.Msgs or the
// in-flight slot store), message drops, duplicates, delay spikes and a
// partition, a crash and a down interval under each recovery and in-flight
// policy, the three retention modes and MaxEvents. Run must return an
// error or a result, never panic, and must reject a configuration under
// every retention mode or under none. An accepted configuration must give
// equal totals, truncation and stream digest under full, window and none
// retention, and its full trace must pass Validate and survive a
// WriteJSON/ReadJSON round trip with equal Hash and StreamHash. Every
// accepted run must also conserve messages: each one sent (wake-ups
// included) was delivered as a receive event, dropped by the network, or
// is still pending in the delivery queue when the run stops, and every
// retention mode leaves the same number pending.
func FuzzEngineConfig(f *testing.F) {
	for _, tc := range []struct {
		n                  uint16
		topo, steps, delay uint8
		dMin, dSpan        int8
		net, faults        uint8
		downFrom           int8
		maxEvents          uint16
		window             uint8
		seed               int64
	}{
		{n: 8, topo: 5, steps: 3, delay: 1, dMin: 2, dSpan: 1, seed: 1},
		{n: 4095, topo: 0, steps: 2, delay: 1, dMin: 2, dSpan: 3, window: 16, seed: 2},
		{n: 4096, topo: 0, steps: 2, delay: 1, dMin: 2, dSpan: 3, window: 16, seed: 2},
		{n: 4099, topo: 2, steps: 1, delay: 0, dMin: 0, seed: 3},                  // zero constant delay, 4096-bucket wheel
		{n: 63, topo: 5, steps: 2, delay: 0, dMin: 0, maxEvents: 500},             // zero delay, full mesh, truncated
		{n: 40, topo: 0, steps: 3, delay: 1, dMin: 1, dSpan: 4, net: 15, seed: 4}, // drop+dup+spike+partition
		{n: 16, topo: 1, steps: 3, delay: 1, dMin: 2, dSpan: 2, faults: 0x17, downFrom: 1, seed: 5},
		{n: 16, topo: 0, steps: 3, delay: 1, dMin: 2, dSpan: 2, faults: 0x0e, downFrom: 2, window: 1, seed: 6},
		{n: 1, topo: 0, steps: 3, delay: 0, dMin: 1, net: 8},                                                                                    // a partition of one process
		{n: 1, topo: 2, steps: 1, delay: 1, dMin: 1, dSpan: 1},                                                                                  // a topology the generator rejects
		{n: 10, topo: 0, steps: 1, delay: 1, dMin: -1, dSpan: 1},                                                                                // negative delay
		{n: 10, topo: 0, steps: 1, delay: 1, dMin: 3, dSpan: -1},                                                                                // maximum below minimum
		{n: 10, topo: 0, steps: 1, delay: 0, dMin: 1, faults: 2, downFrom: -3},                                                                  // down interval at negative time
		{n: 4096, topo: 100, steps: 1, delay: 1, dMin: 1, dSpan: 65, net: 7, faults: 0x1b, downFrom: 4, maxEvents: 9102, window: 40, seed: -61}, // two 2048-cliques: 8.4M messages before the cap
		{n: 4100, topo: 3, steps: 3, delay: 1, dMin: 1, dSpan: 5, net: 7, faults: 0x1b, downFrom: 4, maxEvents: 9000, window: 40, seed: 7},
		{n: 4095, topo: 0, steps: 3, delay: 2, window: 16, seed: 8}, // float-key collisions, 2048-bucket wheel
		{n: 4096, topo: 0, steps: 3, delay: 2, window: 16, seed: 9}, // float-key collisions, 2048-bucket wheel
		{n: 30, topo: 5, steps: 2, delay: 2, net: 4, faults: 0x0e, downFrom: 1, seed: 10},
	} {
		f.Add(tc.n, tc.topo, tc.steps, tc.delay, tc.dMin, tc.dSpan, tc.net, tc.faults, tc.downFrom, tc.maxEvents, tc.window, tc.seed)
	}
	f.Fuzz(func(t *testing.T, rawN uint16, topo, steps, delay uint8, dMin, dSpan int8, net, faults uint8, downFrom int8, maxEvents uint16, window uint8, seed int64) {
		n := max(1, int(rawN)%4101)
		spec := []string{"ring", "torus", "regular/2", "scalefree/1", "islands/2", "full"}[topo%6]
		if (spec == "full" || spec == "islands/2") && n > 64 {
			// Cliques of thousands send millions of messages per round,
			// which a full-retention run stores.
			spec = "ring"
		}
		links, err := ParseTopology(spec, n, seed)
		if err != nil {
			return // the generator rejects this size (regular/2 on n < 3)
		}
		build := func() Config {
			cfg := Config{
				N:         n,
				Spawn:     broadcastSpawn(int(steps % 4)),
				Topology:  links,
				Seed:      seed,
				MaxEvents: int(maxEvents) % 20000,
			}
			lo := rat.New(int64(dMin), 2)
			switch delay % 3 {
			case 0:
				cfg.Delays = ConstantDelay{D: lo}
			case 1:
				cfg.Delays = UniformDelay{Min: lo, Max: lo.Add(rat.New(int64(dSpan), 3))}
			default:
				// Links with an odd endpoint sum take 1 + 2^−60, whose
				// float64 image is 1: sums of the two delays are distinct
				// times with equal keys.
				cfg.Delays = OverrideDelay{
					Base:     ConstantDelay{D: rat.One},
					Match:    func(m Message) bool { return (m.From+m.To)%2 != 0 },
					Override: ConstantDelay{D: rat.New(1<<60+1, 1<<60)},
				}
			}
			if net != 0 {
				nf := &NetFaults{}
				if net&1 != 0 {
					nf.Drop = 0.2
				}
				if net&2 != 0 {
					nf.Dup = 0.2
				}
				if net&4 != 0 {
					nf.Spike = SpikeRule{Prob: 0.3, Extra: rat.New(5, 2)}
				}
				if net&8 != 0 {
					a := make([]ProcessID, max(1, n/2))
					for i := range a {
						a[i] = ProcessID(i)
					}
					nf.Partitions = []Partition{{From: rat.One, Until: rat.FromInt(4), A: a}}
				}
				cfg.Net = nf
			}
			cfg.Faults = map[ProcessID]Fault{}
			if faults&1 != 0 {
				cfg.Faults[ProcessID(n-1)] = Crash(int(faults>>4) % 3)
			}
			if faults&2 != 0 {
				from := rat.New(int64(downFrom), 2)
				cfg.Faults[0] = Fault{
					CrashAfter: NeverCrash,
					Down:       []Interval{{From: from, Until: from.Add(rat.FromInt(3))}},
					Recovery:   RecoveryPolicy(faults >> 2 & 1),
					Inflight:   InflightPolicy(faults >> 3 & 1),
				}
			}
			return cfg
		}

		fe := NewEngine()
		full, err := fe.Run(build())
		pending := fe.queue.len()
		e := NewEngine()
		for _, sink := range []Sink{RetainWindow(1 + int(window%64)), RetainNone()} {
			cfg := build()
			cfg.Sink = sink
			res, berr := e.Run(cfg)
			if (err == nil) != (berr == nil) {
				t.Fatalf("%v retention: error %v, full retention: error %v", sink.Retention().Mode, berr, err)
			}
			if err != nil {
				continue
			}
			ft, bt := full.Trace, res.Trace
			if bt.TotalEvents() != ft.TotalEvents() || bt.TotalMsgs() != ft.TotalMsgs() ||
				bt.StreamHash() != ft.StreamHash() || res.Truncated != full.Truncated {
				t.Fatalf("%v retention: (%d events, %d msgs, digest %016x, truncated %v), full retention: (%d, %d, %016x, %v)",
					sink.Retention().Mode, bt.TotalEvents(), bt.TotalMsgs(), bt.StreamHash(), res.Truncated,
					ft.TotalEvents(), ft.TotalMsgs(), ft.StreamHash(), full.Truncated)
			}
			if got := e.queue.len(); got != pending {
				t.Fatalf("%v retention: %d deliveries pending, full retention: %d", sink.Retention().Mode, got, pending)
			}
		}
		if err != nil {
			return
		}
		tr := full.Trace
		dropped := 0
		for _, m := range tr.Msgs {
			if m.Dropped {
				dropped++
			}
		}
		if sent, events := tr.TotalMsgs(), tr.TotalEvents(); sent != events+dropped+pending {
			t.Fatalf("%d messages sent, but %d delivered + %d dropped + %d pending = %d",
				sent, events, dropped, pending, events+dropped+pending)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("full trace fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("ReadJSON of a written trace: %v", err)
		}
		if back.Hash() != tr.Hash() || back.StreamHash() != tr.StreamHash() {
			t.Fatalf("JSON round trip: hash %016x digest %016x, want %016x %016x",
				back.Hash(), back.StreamHash(), tr.Hash(), tr.StreamHash())
		}
	})
}
