package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rat"
)

// refQueue is the reference the delivery queue is checked against: a
// slice kept sorted by the exact (at, seq) order alone, with no float key.
type refQueue []delivery

func (r *refQueue) push(d delivery) {
	i, _ := slices.BinarySearchFunc(*r, d, func(a, b delivery) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	*r = slices.Insert(*r, i, d)
}

func (r *refQueue) pop() delivery {
	d := (*r)[0]
	*r = (*r)[1:]
	return d
}

// queueModes are the ranges of system sizes [lo, lo+span) that put a
// reset bucketQueue in each of its modes: windowless (no buckets, the
// overflow heap alone) and the calendar at its two smallest wheels.
var queueModes = []struct {
	name     string
	lo, span int
}{
	{"windowless", 1, autoBucketN - 1},
	{"calendar", autoBucketN, autoBucketN},
}

// TestQueueImplementationsAgree checks both modes of the delivery queue
// against the sorted-slice reference on an engine-like push/pop stream:
// each must pop the identical exact (at, seq) order. Pushes land at or
// after the last popped time, as the engine's do, with zero delays (equal
// keys), delays from a tiny set (float key ties across pushes), promoted
// times whose float keys tie with an integer time while the exact values
// differ, and far jumps that overflow the calendar window and force
// rebuilds.
func TestQueueImplementationsAgree(t *testing.T) {
	huge := rat.MustParse("100000000000000000000000")
	for _, mode := range queueModes {
		for seed := int64(0); seed < 24; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var q bucketQueue
			q.reset(mode.lo + rng.Intn(mode.span))
			ref := refQueue{}
			now := rat.Zero
			seq := int64(0)
			push := func(at Time) {
				seq++
				d := delivery{at: at, key: deliveryKey(at), seq: seq, ref: int(seq)}
				ref.push(d)
				q.push(d)
			}
			for i := 0; i < 200; i++ {
				push(rat.Zero) // a wake-up burst at t = 0
			}
			for op := 0; op < 10000; op++ {
				if len(ref) != q.len() {
					t.Fatalf("%s seed %d op %d: reference len %d, queue len %d", mode.name, seed, op, len(ref), q.len())
				}
				if len(ref) > 0 && rng.Intn(2) == 0 {
					r, d := ref.pop(), q.pop()
					if r.seq != d.seq {
						t.Fatalf("%s seed %d op %d: reference popped seq %d at %v, queue seq %d at %v", mode.name, seed, op, r.seq, r.at, d.seq, d.at)
					}
					now = r.at
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
			for len(ref) > 0 {
				if r, d := ref.pop(), q.pop(); r.seq != d.seq {
					t.Fatalf("%s seed %d drain: reference seq %d, queue seq %d", mode.name, seed, r.seq, d.seq)
				}
			}
			if q.len() != 0 {
				t.Fatalf("%s seed %d: queue holds %d after the reference drained", mode.name, seed, q.len())
			}
		}
	}
}

// TestQueueLargeDrainsAgree extends the reference check to the calendar's
// bulk paths: a wake-up burst of thousands of deliveries at t = 0 gives
// the first rebuild a zero key span (width 1), so every later drain takes
// a bucket of thousands of distinct keys — past bucketSortThreshold,
// through the counting sort — and the population swells and shrinks so
// buckets both swap into the spare and outgrow it. One queue is reused
// across resets that cycle through the windowless mode and two wheel
// sizes, so stale storage from another mode and wheel is in play.
func TestQueueLargeDrainsAgree(t *testing.T) {
	var q bucketQueue
	for seed := int64(0); seed < 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q.reset([]int{100, autoBucketN, 1 << 14}[seed%3])
		ref := refQueue{}
		seq := int64(0)
		push := func(at Time) {
			seq++
			d := delivery{at: at, key: deliveryKey(at), seq: seq, ref: int(seq)}
			ref.push(d)
			q.push(d)
		}
		for i := 0; i < 2000+rng.Intn(3000); i++ {
			push(rat.Zero)
		}
		for op := 0; len(ref) > 0 && op < 60000; op++ {
			want, got := ref.pop(), q.pop()
			if want.seq != got.seq {
				t.Fatalf("seed %d op %d: reference popped seq %d at %v, queue seq %d at %v", seed, op, want.seq, want.at, got.seq, got.at)
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
				push(want.at.Add(rat.New(1000+rng.Int63n(501), 1000)))
			}
			switch rng.Intn(200) {
			case 0:
				push(want.at)
			case 1:
				push(want.at.Add(rat.FromInt(5000 + rng.Int63n(5000))))
			}
			if len(ref) != q.len() {
				t.Fatalf("seed %d op %d: reference len %d, queue len %d", seed, op, len(ref), q.len())
			}
		}
	}
}

// TestQueueResetSizesWheel: reset sizes the wheel to exactly bucketsFor(n)
// in both directions, so a queue reused after a large run neither keeps
// nor scans that run's wheel, and the zero value is a working windowless
// queue.
func TestQueueResetSizesWheel(t *testing.T) {
	var q bucketQueue
	q.push(delivery{at: rat.One, key: 1, seq: 2})
	q.push(delivery{at: rat.Zero, key: 0, seq: 1})
	if d := q.pop(); d.seq != 1 || q.len() != 1 {
		t.Fatalf("zero-value queue popped seq %d, %d left", d.seq, q.len())
	}
	for _, tc := range []struct{ n, buckets int }{
		{1 << 20, 1 << 19}, {5000, 4096}, {autoBucketN - 1, 0}, {autoBucketN, 2048}, {1 << 14, 8192}, {0, 0},
	} {
		q.reset(tc.n)
		if got, want := len(q.buckets), bucketsFor(tc.n); got != want || got != tc.buckets {
			t.Fatalf("reset(%d): %d buckets, want bucketsFor = %d = %d", tc.n, got, want, tc.buckets)
		}
	}
}
