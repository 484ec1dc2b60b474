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
// (18.6 and 21.2 MB per iteration on a 2-CPU x86-64 host, where per-drain
// copies and per-bin appends cost 2.1–2.7 GB).
//
// The receive times live in a message table of the in-flight size,
// allocated before the timer starts, as the engine's slot store is not
// the queue's: each pop's successor takes over the popped delivery's ref,
// as a freed slot is reused by the next send, and each pop reads its
// time from the table, as the engine's takeDelivery reads the message.
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
			msgs := make([]Message, inflight)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var q bucketQueue
				q.reset(inflight, recvTimes{msgs: &msgs})
				rng := rand.New(rand.NewSource(1))
				seq := int64(0)
				push := func(at Time, ref int) {
					seq++
					msgs[ref].RecvTime = at
					q.push(delivery{key: deliveryKey(at), seq: seq, ref: ref})
				}
				for j := 0; j < inflight; j++ {
					at := rat.Zero
					if !load.sameStart {
						at = rat.New(int64(rng.Intn(4096)), 4)
					}
					push(at, j)
				}
				lastKey := deliveryKey(rat.Zero)
				for j := 0; j < total-inflight; j++ {
					d := q.pop()
					if d.key < lastKey {
						b.Fatalf("pop went backwards: key %v after %v", d.key, lastKey)
					}
					lastKey = d.key
					// Successor delay in [1, 3/2], quarter-granular —
					// the same shape UniformDelay feeds the engine.
					push(msgs[d.ref].RecvTime.Add(rat.New(4+int64(rng.Intn(3)), 4)), d.ref)
				}
				for q.len() > 0 {
					q.pop()
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
