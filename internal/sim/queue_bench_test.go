package sim

import (
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// BenchmarkDeliveryQueue is the 10^7-event scheduler microbenchmark behind
// the calendar-queue tuning: prime the queue with an engine-like in-flight
// population, then run a hold pattern — every pop schedules a successor a
// small random delay later — until ten million deliveries have passed
// through, and drain.
//
// The spread load starts deliveries across a wide key range (steady-state
// traffic). The degenerate-start load is the wheel's historical failure
// mode: every primed delivery at t = 0, exactly what a simulation's wake-up
// burst looks like — the first rebuild then sees a zero key span, falls
// back to width 1, and lands the entire population in one bucket. Before
// the sortRun key refinement (now a counting sort) and the size-adaptive
// wheel (bucketsFor), that one bucket cost a single reflective sort of
// 10^5+ deliveries per drain; with them the drain stays near-linear.
// Drains take the bucket's storage as the current run without copying and
// recycle the previous run's storage as a spare, which the counting sort
// also writes into: B/op is the in-flight working set plus its growth
// (35.1 and 37.7 MB per iteration on a 2-CPU x86-64 host, 13.6 MB of it
// the slot store's 2^17 messages; per-drain copies and per-bin appends
// once cost 2.1–2.7 GB).
//
// The queue is driven as the engine drives it: each push hands it a
// message, which it copies into its slot store, and each pop returns the
// message, whose successor reuses the freed slot.
func BenchmarkDeliveryQueue(b *testing.B) {
	const total = 10_000_000
	const inflight = 1 << 17

	loads := []struct {
		name      string
		sameStart bool
	}{
		{"spread", false},
		{"degenerate-start", true},
	}
	for _, load := range loads {
		b.Run(load.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var q bucketQueue
				q.reset(inflight)
				rng := rand.New(rand.NewSource(1))
				for j := 0; j < inflight; j++ {
					m := Message{RecvTime: rat.Zero}
					if !load.sameStart {
						m.RecvTime = rat.New(int64(rng.Intn(4096)), 4)
					}
					q.push(&m)
				}
				last := rat.Zero
				for j := 0; j < total-inflight; j++ {
					m := q.pop()
					if m.RecvTime.Less(last) {
						b.Fatalf("pop went backwards: %v after %v", m.RecvTime, last)
					}
					last = m.RecvTime
					// Successor delay in [1, 3/2], quarter-granular —
					// the same shape UniformDelay feeds the engine.
					m.RecvTime = m.RecvTime.Add(rat.New(4+int64(rng.Intn(3)), 4))
					q.push(&m)
				}
				for q.len() > 0 {
					q.pop()
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
