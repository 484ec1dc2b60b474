package sim

import (
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// TestQueueImplementationsAgree is the heap-vs-calendar differential:
// both delivery queues get the same engine-like push/pop stream and must
// pop the identical exact (at, seq) order. Pushes land at or after the
// last popped time, as the engine's do, with zero delays (equal keys),
// delays from a tiny set (float key ties across pushes), promoted times
// whose float keys tie with an integer time while the exact values
// differ, and far jumps that
// overflow the calendar window and force rebuilds.
func TestQueueImplementationsAgree(t *testing.T) {
	huge := rat.MustParse("100000000000000000000000")
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		heap := new(heapQueue)
		cal := newBucketQueue()
		cal.reset(1 + rng.Intn(8192))
		now := rat.Zero
		seq := int64(0)
		push := func(at Time) {
			seq++
			d := delivery{at: at, key: deliveryKey(at), seq: seq, ref: int(seq)}
			heap.push(d)
			cal.push(d)
		}
		for i := 0; i < 200; i++ {
			push(rat.Zero) // a wake-up burst at t = 0
		}
		for op := 0; op < 10000; op++ {
			if heap.len() != cal.len() {
				t.Fatalf("seed %d op %d: heap len %d, calendar len %d", seed, op, heap.len(), cal.len())
			}
			if heap.len() > 0 && rng.Intn(2) == 0 {
				h, c := heap.pop(), cal.pop()
				if h.seq != c.seq {
					t.Fatalf("seed %d op %d: heap popped seq %d at %v, calendar seq %d at %v", seed, op, h.seq, h.at, c.seq, c.at)
				}
				if h.at.Less(now) {
					t.Fatalf("seed %d op %d: popped %v before %v", seed, op, h.at, now)
				}
				now = h.at
				continue
			}
			at := now
			switch rng.Intn(5) {
			case 0: // zero delay
			case 1:
				at = now.Add(rat.New(int64(1+rng.Intn(3)), 2))
			case 2: // promoted: ⌈now⌉ + 1/(10^23 + r), a float-key tie with ⌈now⌉
				at = rat.FromInt(now.Ceil()).Add(rat.One.Div(huge.Add(rat.FromInt(rng.Int63n(1000)))))
			case 3:
				at = now.Add(rat.New(rng.Int63n(1000), 7))
			default: // far jump beyond the calendar window
				at = now.Add(rat.FromInt(rng.Int63n(1_000_000)))
			}
			push(at)
		}
		for heap.len() > 0 {
			if h, c := heap.pop(), cal.pop(); h.seq != c.seq {
				t.Fatalf("seed %d drain: heap seq %d, calendar seq %d", seed, h.seq, c.seq)
			}
		}
		if cal.len() != 0 {
			t.Fatalf("seed %d: calendar holds %d after the heap drained", seed, cal.len())
		}
	}
}

// TestQueueLargeDrainsAgree extends the heap-vs-calendar differential to
// the calendar's bulk paths: a wake-up burst of thousands of deliveries at
// t = 0 gives the first rebuild a zero key span (width 1), so every later
// drain takes a bucket of thousands of distinct keys — past
// bucketSortThreshold, through the counting sort — and the population
// swells and shrinks so buckets both swap into the spare and outgrow it.
// One calendar is reused across resets at alternating system sizes, so
// stale storage from a larger wheel is in play.
func TestQueueLargeDrainsAgree(t *testing.T) {
	cal := newBucketQueue()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cal.reset([]int{100, 1 << 14}[seed%2])
		heap := new(heapQueue)
		seq := int64(0)
		push := func(at Time) {
			seq++
			d := delivery{at: at, key: deliveryKey(at), seq: seq, ref: int(seq)}
			heap.push(d)
			cal.push(d)
		}
		for i := 0; i < 2000+rng.Intn(3000); i++ {
			push(rat.Zero)
		}
		for op := 0; heap.len() > 0 && op < 60000; op++ {
			h, c := heap.pop(), cal.pop()
			if h.seq != c.seq {
				t.Fatalf("seed %d op %d: heap popped seq %d at %v, calendar seq %d at %v", seed, op, h.seq, h.at, c.seq, c.at)
			}
			// Each delivery schedules 0–2 successors a fine-grained delay
			// in [1, 3/2] later (mean 1.1 for the first half of the ops,
			// 0.9 after: the population swells, then tapers), now and then
			// one at zero delay (a merge into the current run) or far
			// beyond the window (a rebuild).
			successors := 1
			switch r := rng.Intn(10); {
			case r == 0:
				successors = 2
			case r <= 2 && op >= 30000:
				successors = 0
			}
			for k := 0; k < successors; k++ {
				push(h.at.Add(rat.New(1000+rng.Int63n(501), 1000)))
			}
			switch rng.Intn(200) {
			case 0:
				push(h.at)
			case 1:
				push(h.at.Add(rat.FromInt(5000 + rng.Int63n(5000))))
			}
			if heap.len() != cal.len() {
				t.Fatalf("seed %d op %d: heap len %d, calendar len %d", seed, op, heap.len(), cal.len())
			}
		}
	}
}
