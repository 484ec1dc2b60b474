package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/rat"
)

// refEntry is one delivery as the reference sees it: its exact receive
// time and its seq, with no float key and no store to resolve.
type refEntry struct {
	at  Time
	seq int64
}

// refQueue is the reference the delivery queue is checked against: a
// slice kept sorted by the exact (at, seq) order alone.
type refQueue []refEntry

func (r *refQueue) push(at Time, seq int64) {
	i, _ := slices.BinarySearchFunc(*r, seq, func(e refEntry, seq int64) int {
		if c := e.at.Cmp(at); c != 0 {
			return c
		}
		return int(e.seq - seq)
	})
	*r = slices.Insert(*r, i, refEntry{at, seq})
}

func (r *refQueue) pop() refEntry {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// queueHarness drives a bucketQueue as the engine does: each pushed
// message waits in the queue's own slot store, whose receive times the
// queue reads on a float-key tie, and each pop frees its slot for a later
// push to reuse. Every push also goes to the reference, and pop checks
// the queue against it. A message's ID is its push number — the seq the
// queue gives it, and the reference's seq — so a pop is checked for both
// its seq and its exact time.
type queueHarness struct {
	q     bucketQueue
	ref   refQueue
	seq   int64
	label string // names the case in failure messages
}

// reset empties the harness and resets the queue for a system of n
// processes, which picks its wheel size; label names the case that
// follows.
func (h *queueHarness) reset(n int, label string) {
	h.ref, h.seq, h.label = h.ref[:0], 0, label
	h.q.reset(n)
}

func (h *queueHarness) push(at Time) {
	h.seq++
	h.ref.push(at, h.seq)
	h.q.push(&Message{ID: MsgID(h.seq), RecvTime: at})
}

// pop pops the queue and the reference, failing t unless both give the
// same message, and returns the reference's entry.
func (h *queueHarness) pop(t *testing.T) refEntry {
	t.Helper()
	want, m := h.ref.pop(), h.q.pop()
	if int64(m.ID) != want.seq || !m.RecvTime.Equal(want.at) {
		t.Fatalf("%s: queue popped seq %d at %v, reference seq %d at %v", h.label, m.ID, m.RecvTime, want.seq, want.at)
	}
	return want
}

// checkLen fails t unless the queue and the reference hold as many.
func (h *queueHarness) checkLen(t *testing.T) {
	t.Helper()
	if len(h.ref) != h.q.len() {
		t.Fatalf("%s: reference holds %d, queue %d", h.label, len(h.ref), h.q.len())
	}
}

// queueMaxN bounds the system sizes the reference checks draw: sizes in
// [1, queueMaxN) put a reset bucketQueue on its three smallest wheels
// (1024, 2048 and 4096 buckets).
const queueMaxN = 1 << 13

// TestQueueImplementationsAgree checks the delivery queue against the sorted-slice reference on an
// engine-like push/pop stream: it must pop the identical exact (at, seq)
// order. Pushes land at or after the last popped time, as the
// engine's do, with zero delays (equal keys), delays from a tiny set
// (float key ties across pushes), promoted times whose float keys tie
// with an integer time while the exact values differ, and far jumps that
// overflow the calendar window and force rebuilds.
func TestQueueImplementationsAgree(t *testing.T) {
	huge := rat.MustParse("100000000000000000000000")
	var h queueHarness
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h.reset(1+rng.Intn(queueMaxN-1), fmt.Sprintf("seed %d", seed))
		now := rat.Zero
		for i := 0; i < 200; i++ {
			h.push(rat.Zero) // a wake-up burst at t = 0
		}
		for op := 0; op < 10000; op++ {
			h.checkLen(t)
			if len(h.ref) > 0 && rng.Intn(2) == 0 {
				now = h.pop(t).at
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
			h.push(at)
		}
		for len(h.ref) > 0 {
			h.pop(t)
		}
		h.checkLen(t)
	}
}

// TestQueueLargeDrainsAgree extends the reference check to the calendar's
// bulk paths: a wake-up burst of thousands of deliveries at t = 0 gives
// the first rebuild a zero key span (width 1), so every later drain takes
// a bucket of thousands of distinct keys — past bucketSortThreshold,
// through the counting sort — and the population swells and shrinks so
// buckets both swap into the spare and outgrow it. One queue is reused
// across resets that cycle through three wheel sizes, so stale storage
// from another wheel — buckets and slots — is in play.
func TestQueueLargeDrainsAgree(t *testing.T) {
	var h queueHarness
	for seed := int64(0); seed < 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h.reset([]int{100, 4096, 1 << 14}[seed%3], fmt.Sprintf("seed %d", seed))
		for i := 0; i < 2000+rng.Intn(3000); i++ {
			h.push(rat.Zero)
		}
		for op := 0; len(h.ref) > 0 && op < 60000; op++ {
			now := h.pop(t).at
			// Each delivery schedules 0–2 successors a fine-grained
			// delay in [1, 3/2] later (mean 1.1 for the first half of
			// the ops, 0.9 after: the population swells, then tapers),
			// now and then one at zero delay (a merge into the current
			// run) or far beyond the window (a rebuild).
			successors := 1
			switch r := rng.Intn(10); {
			case r == 0:
				successors = 2
			case r <= 2 && op >= 30000:
				successors = 0
			}
			for k := 0; k < successors; k++ {
				h.push(now.Add(rat.New(1000+rng.Int63n(501), 1000)))
			}
			switch rng.Intn(200) {
			case 0:
				h.push(now)
			case 1:
				h.push(now.Add(rat.FromInt(5000 + rng.Int63n(5000))))
			}
			h.checkLen(t)
		}
	}
}

// TestQueueFloatKeyCollisions pins the exact tie-break on distinct
// receive times that share a float64 key: k/2 − 2^−61, k/2 and
// k/2 + 2^−61 all round to k/2, so only the times read through the
// message store can order them. Pushes run against seq — within a burst
// the later times are pushed first — so a tie-break on seq alone pops
// them in the wrong order. The first window is
// degenerate (every primed key is 1), so the first bucket's drain is a
// comparison sort of equal keys, successors in the same family merge into
// the current run by binary insertion, and later buckets of two families
// go through the counting sort.
func TestQueueFloatKeyCollisions(t *testing.T) {
	// family f's member j is f/2 + j·2^−61, f in [2, 7], j in {−1, 0, 1}.
	const minFamily, maxFamily = 2, 7
	colliding := func(f, j int) Time { return rat.New(int64(f)<<60+int64(j), 1<<61) }
	if k := deliveryKey(colliding(2, 1)); k != deliveryKey(colliding(2, -1)) || k != 1 {
		t.Fatalf("key of 1 + 2^-61 is %v, want a collision with 1 - 2^-61 at 1", k)
	}
	var h queueHarness
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h.reset(1+rng.Intn(queueMaxN-1), fmt.Sprintf("seed %d", seed))
		pushed := [][2]int{{}} // seq → (family, member)
		push := func(fj [2]int) {
			h.push(colliding(fj[0], fj[1]))
			pushed = append(pushed, fj)
		}
		for i := 0; i < 150; i++ {
			push([2]int{minFamily, 1 - i%3}) // descending times, ascending seq
		}
		// Each delivery of member j in family f schedules 0–2
		// successors at a member no earlier than itself in the same
		// family or one of the next two, the later time first.
		for len(h.ref) > 0 {
			e := h.pop(t)
			f, j := pushed[e.seq][0], pushed[e.seq][1]
			var succ [][2]int
			for k := rng.Intn(5) / 2; k > 0; k-- {
				sf := min(f+rng.Intn(3), maxFamily)
				sj := -1 + rng.Intn(3)
				if sf == f {
					sj = j + rng.Intn(2-j)
				}
				succ = append(succ, [2]int{sf, sj})
			}
			slices.SortFunc(succ, func(a, b [2]int) int { return colliding(b[0], b[1]).Cmp(colliding(a[0], a[1])) })
			for _, s := range succ {
				push(s)
			}
			h.checkLen(t)
		}
	}
}

// TestQueueResetSizesWheel: reset sizes the wheel to exactly bucketsFor(n)
// in both directions, so a queue reused after a large run neither keeps
// nor scans that run's wheel, and every size, the smallest included, gets
// a wheel.
func TestQueueResetSizesWheel(t *testing.T) {
	var q bucketQueue
	for _, tc := range []struct{ n, buckets int }{
		{1 << 20, 1 << 19}, {5000, 4096}, {64, 1024}, {4096, 2048}, {1 << 14, 8192}, {0, 1024},
	} {
		q.reset(tc.n)
		if got, want := len(q.buckets), bucketsFor(tc.n); got != want || got != tc.buckets {
			t.Fatalf("reset(%d): %d buckets, want bucketsFor = %d = %d", tc.n, got, want, tc.buckets)
		}
	}
}

// TestDeliveryRecordPointerFree pins the delivery queue's entry: 24 B
// on 64-bit platforms (20 B where int is 32 bits) with no pointer, so
// the queue's buckets, spare and overflow heap are memory the garbage
// collector never scans and writes to them need no write barrier.
func TestDeliveryRecordPointerFree(t *testing.T) {
	if s, want := unsafe.Sizeof(delivery{}), uintptr(16+strconv.IntSize/8); s != want {
		t.Errorf("delivery is %d B, want %d", s, want)
	}
	typ := reflect.TypeOf(delivery{})
	for i := range typ.NumField() {
		// Bool through Complex128 are the scalar kinds.
		if f := typ.Field(i); f.Type.Kind() > reflect.Complex128 {
			t.Errorf("delivery.%s is a %v, which holds a pointer", f.Name, f.Type)
		}
	}
}
