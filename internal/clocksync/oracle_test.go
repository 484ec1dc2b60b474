package clocksync

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rat"
	"repro/internal/sim"
)

// scanProc is Algorithm 1 as first implemented: it keeps the sender set
// of every tick it ever received and rescans all of them for the catch-up
// rule on every step, so a step costs O(ticks received so far). It is the
// reference of TestProcMatchesScanOracle and is used nowhere else.
type scanProc struct {
	n, f  int
	k     int
	sent  int
	recv  map[int]map[sim.ProcessID]bool
	sends []int // every tick broadcast, in order
}

func newScanProc(n, f int) *scanProc {
	return &scanProc{n: n, f: f, sent: -1, recv: make(map[int]map[sim.ProcessID]bool)}
}

func (p *scanProc) step(msg sim.Message) Note {
	advanced, broadcast := false, false
	send := func(j int) {
		if j <= p.sent {
			return
		}
		p.sent = j
		p.sends = append(p.sends, j)
		broadcast = true
	}
	switch m := msg.Payload.(type) {
	case sim.Wakeup:
		send(0)
	case Tick:
		if m.K < 0 {
			break
		}
		senders := p.recv[m.K]
		if senders == nil {
			senders = make(map[sim.ProcessID]bool)
			p.recv[m.K] = senders
		}
		senders[msg.From] = true
	}
	for {
		progressed := false
		best := p.k
		for l, senders := range p.recv {
			if l > best && len(senders) >= p.f+1 {
				best = l
			}
		}
		if best > p.k {
			for j := p.k + 1; j <= best; j++ {
				send(j)
			}
			p.k = best
			advanced, progressed = true, true
		}
		if len(p.recv[p.k]) >= p.n-p.f {
			send(p.k + 1)
			p.k++
			advanced, progressed = true, true
		}
		if !progressed {
			break
		}
	}
	return Note{Clock: p.k, Advanced: advanced, Broadcast: broadcast}
}

// tickStream draws one reception for a process whose clock is k: mostly
// ticks at or just above k (so clocks move), plus duplicates of earlier
// receptions, ticks below k, negative and far-future ticks, and a shared
// pool of far-future values several senders can agree on.
func tickStream(rng *rand.Rand, n, k int, history []sim.Message, far []int) sim.Message {
	from := sim.ProcessID(rng.Intn(n))
	var K int
	switch r := rng.Intn(100); {
	case r < 40:
		K = k
	case r < 55:
		K = k + 1 + rng.Intn(3)
	case r < 65 && len(history) > 0:
		return history[rng.Intn(len(history))] // duplicate or out-of-order replay
	case r < 73:
		K = k - 1 - rng.Intn(5) // below k; negative near k = 0
	case r < 76:
		K = -1 - rng.Intn(3)
		if rng.Intn(2) == 0 {
			K = math.MinInt
		}
	case r < 82:
		K = far[rng.Intn(len(far))]
	case r < 85:
		K = k + 100 + rng.Intn(1000)
	default:
		K = k + rng.Intn(3) - 1
	}
	return sim.Message{From: from, To: 0, Payload: Tick{K: K}}
}

// checkBounded asserts the structure behind Proc's O(1) steps: no sender
// set below the clock, a recorded count per set equal to its bitset's
// population, and every set at or above f+1 senders at or below ready.
func checkBounded(t *testing.T, ctx string, p *Proc) {
	t.Helper()
	for l, s := range p.recv {
		if l < p.k {
			t.Fatalf("%s: sender set for tick %d below clock %d", ctx, l, p.k)
		}
		pop := 0
		for _, w := range s.bits {
			for ; w != 0; w &= w - 1 {
				pop++
			}
		}
		if pop != s.count {
			t.Fatalf("%s: tick %d set counts %d senders, bitset holds %d", ctx, l, s.count, pop)
		}
		if s.count >= p.f+1 && l > p.ready {
			t.Fatalf("%s: tick %d has %d senders but ready = %d", ctx, l, s.count, p.ready)
		}
	}
}

// TestProcMatchesScanOracle drives Proc and the map-and-scan reference
// with the same seeded reception streams and requires equal clocks, equal
// broadcast sequences and equal Notes after every step.
func TestProcMatchesScanOracle(t *testing.T) {
	env := &sim.Env{} // a zero Env has no processes: broadcasts go nowhere
	for _, n := range []int{1, 4, 7, 13} {
		for f := 0; f <= (n-1)/3; f++ {
			for seed := int64(0); seed < 40; seed++ {
				ctx := fmt.Sprintf("n=%d f=%d seed=%d", n, f, seed)
				rng := rand.New(rand.NewSource(seed*1000 + int64(n*10+f)))
				far := []int{200 + rng.Intn(50), 5000 + rng.Intn(50)}
				p, o := New(n, f), newScanProc(n, f)
				var sends []int
				p.SetPiggyback(func(_ *sim.Env, j int) *RoundData {
					sends = append(sends, j)
					return nil
				}, nil)
				wake := rng.Intn(5) // the wake-up may arrive after a few ticks
				var history []sim.Message
				compared := 0 // broadcasts already found equal
				for step := 0; step < 400; step++ {
					msg := sim.Message{From: sim.External, Payload: sim.Wakeup{}}
					if step != wake {
						msg = tickStream(rng, n, o.k, history, far)
						history = append(history, msg)
					}
					got, want := p.step(env, msg), o.step(msg)
					if got != want {
						t.Fatalf("%s step %d (%+v): note %+v, oracle %+v", ctx, step, msg.Payload, got, want)
					}
					if p.Clock() != o.k {
						t.Fatalf("%s step %d: clock %d, oracle %d", ctx, step, p.Clock(), o.k)
					}
					if len(sends) != len(o.sends) || !slices.Equal(sends[compared:], o.sends[compared:]) {
						t.Fatalf("%s step %d: broadcasts %v, oracle %v", ctx, step, sends[compared:], o.sends[compared:])
					}
					compared = len(sends)
					checkBounded(t, fmt.Sprintf("%s step %d", ctx, step), p)
				}
				if o.k == 0 {
					t.Fatalf("%s: stream never advanced the clock", ctx)
				}
			}
		}
	}
}

// TestProcStateBounded runs Algorithm 1 for 2000 ticks, fault-free and
// against each Byzantine adversary kind, and checks after every event and
// at the end that no correct process holds a sender set for a tick below
// its clock.
func TestProcStateBounded(t *testing.T) {
	const n, f, target = 4, 1, 2000
	cases := []struct {
		name   string
		faults map[sim.ProcessID]sim.Fault
	}{{name: "fault-free"}}
	for i := 0; i < 4; i++ {
		cases = append(cases, struct {
			name   string
			faults map[sim.ProcessID]sim.Fault
		}{
			name:   fmt.Sprintf("byz/1 adversary %d", i),
			faults: map[sim.ProcessID]sim.Fault{n - 1: sim.ByzantineFault(Adversary(i, 1, 60))},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := AllReached(target, tc.faults)
			check := func(procs []sim.Process) {
				for id, pr := range procs {
					if _, bad := tc.faults[sim.ProcessID(id)]; !bad {
						checkBounded(t, fmt.Sprintf("p%d", id), pr.(*Proc))
					}
				}
			}
			res, err := sim.Run(sim.Config{
				N:      n,
				Spawn:  Spawner(n, f),
				Faults: tc.faults,
				Delays: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Seed:   1,
				Until: func(procs []sim.Process) bool {
					check(procs)
					return done(procs)
				},
				MaxEvents: 200000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("run truncated before clocks reached target")
			}
			check(res.Procs)
		})
	}
}
