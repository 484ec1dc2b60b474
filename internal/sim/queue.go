package sim

import (
	"math"
	"slices"
)

// delivery is a scheduled message reception: a pointer-free 24-byte
// record, so queue storage is neither scanned by the garbage collector
// nor written under write barriers. The message itself waits in the
// queue's slot store, which also holds its exact receive time; the
// record keeps only what orders it. key is the float64 image of the
// receive time under rat.Float64 (clamped to ±MaxFloat64): the
// conversion is correctly rounded and therefore monotone — a < b implies
// key(a) <= key(b), and equal times have equal keys — so float
// comparisons and bucket assignments can never contradict the exact
// order, they can only fail to distinguish values the exact (at, seq)
// comparison then settles.
type delivery struct {
	key  float64
	seq  int64 // insertion order; total tie-break for determinism
	slot int   // where the message waits in the queue's slot store
}

// before is the exact total delivery order (at, seq), behind the heap's
// sift, the current run's binary insertion and every drain sort. The
// cached float key decides almost every comparison in one branch; only on
// a float tie are the messages' exact receive times read from the store
// and compared. seq is unique per delivery, so the order is total and
// every correct sort produces the identical sequence. It takes pointers
// so that the heap's sift loops copy no deliveries.
//
// The read is exact because a delivery is compared only while its
// message is queued, and a queued message's slot is neither freed nor
// rewritten: pop frees a slot only as it returns the message, and
// insertCur searches only the unpopped part of the run.
func (s *slotStore) before(a, b *delivery) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return s.tieBefore(a, b)
}

// tieBefore orders two deliveries with equal float keys by their exact
// receive times, then seq. Kept out of before, so before inlines.
func (s *slotStore) tieBefore(a, b *delivery) bool {
	if c := s.at(a.slot).RecvTime.Cmp(s.at(b.slot).RecvTime); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// sortDeliveries sorts d by the exact (at, seq) order.
func (s *slotStore) sortDeliveries(d []delivery) {
	slices.SortFunc(d, func(a, b delivery) int {
		if s.before(&a, &b) {
			return -1
		}
		return 1
	})
}

// deliveryKey clamps the monotone float64 image of t into the finite
// range so bucket arithmetic stays NaN-free.
func deliveryKey(t Time) float64 {
	f := t.Float64()
	if f > math.MaxFloat64 {
		return math.MaxFloat64
	}
	if f < -math.MaxFloat64 {
		return -math.MaxFloat64
	}
	return f
}

// heapQueue is a hand-rolled binary min-heap in the exact (at, seq)
// order, read through the slot store each operation is given: the
// calendar's overflow store, which holds the wake-ups until the first pop
// primes a window and then whatever lies beyond the window. It
// deliberately avoids container/heap: boxing every delivery through the
// heap.Interface `any` parameters cost one allocation per push and pop,
// which at sparse scale was a measurable slice of the engine's allocation
// volume. Pop order is the unique (at, seq) total order, so the heap's
// internal layout never influences results.
type heapQueue []delivery

func (q *heapQueue) push(d delivery, s *slotStore) {
	*q = append(*q, d)
	q.up(len(*q)-1, s)
}

func (q *heapQueue) pop(s *slotStore) delivery {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	d := h[n]
	*q = h[:n]
	if n > 0 {
		h[:n].down(0, s)
	}
	return d
}

func (q heapQueue) up(i int, s *slotStore) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(&q[i], &q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q heapQueue) down(i int, s *slotStore) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && s.before(&q[r], &q[l]) {
			j = r
		}
		if !s.before(&q[j], &q[i]) {
			return
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// Calendar sizing. The wheel has 1024 buckets at any N up to ~2·10^3 and
// grows with the system size (one bucket per two processes, capped) so the
// expected bucket population stays a handful of deliveries from N ≈ 10^3
// to 10^6. Bucket count is pure performance tuning: routing is monotone
// in the float key at any width, so the pop order — and therefore every
// trace — is identical for any wheel size.
//
// The wheel runs at every N. A heap alone cost the 5·10^4-process ring
// 18% more wall time, even with an exactness bit on key ties; at N = 64
// (the watched full mesh) the wheel took 16% less wall time than the heap
// for 14% more peak RSS (DESIGN.md decision 8).
const (
	bucketQueueMinBuckets = 1024
	bucketQueueMaxBuckets = 1 << 19
	// bucketSortThreshold is the run length above which the drain sort
	// counting-sorts by float key before the exact comparison sort; below
	// it a plain comparison sort of a handful of items wins.
	bucketSortThreshold = 64
)

// bucketsFor returns the wheel size for a system of n processes.
func bucketsFor(n int) int {
	b := bucketQueueMinBuckets
	for b < bucketQueueMaxBuckets && b < n/2 {
		b <<= 1
	}
	return b
}

// bucketQueue is the engine's delivery queue and its in-flight message
// store: push a message in any order, pop messages in the exact
// (at, seq) order of their receive times and push order. Each pushed
// message waits in a slot of the queue's store until it is popped, so
// the store holds exactly the messages in flight, and the queue's length
// is its occupied slot count. The queue itself is a calendar ("event
// wheel") queue with an overflow heap (Brown, "Calendar queues", CACM
// 31(10), 1988): deliveries are binned by their float key into a window
// of equal-width buckets; the bucket being drained is sorted once by the exact (at, seq)
// order, later arrivals merge into the sorted run by binary insertion, and
// deliveries beyond the window wait in the overflow heap that re-seeds the
// window when it empties. At sparse scale the heap's O(log n)
// rational-flavored sift per operation becomes the engine bottleneck; the
// calendar amortizes to O(1) routing per push and a small exact sort per
// bucket. The zero value has no wheel: reset sizes one before first use.
//
// Exactness: bucket routing is a monotone function of the (monotone) float
// key, so an earlier bucket never holds a delivery that must pop after one
// in a later bucket; everything sharing a bucket is ordered by the exact
// comparison. Pushes during a drain always belong at or after the current
// position because the engine only schedules at or after the time it is
// currently delivering.
//
// Degenerate windows are the wheel's failure mode: when the overflow's
// keys span nothing at rebuild time (every wake-up at t = 0) the width
// falls back to 1 and the whole run can land in a handful of buckets,
// turning each drain into a sort of 10^5+ deliveries. sortRun handles
// that case by counting-sorting oversized runs on the float key — two
// O(m) passes scattering the run into bin ranges of the spare — before
// the exact sort of each small bin, so the drain cost stays near-linear
// however badly the window width guessed.
//
// Draining copies nothing: advance takes the bucket's slice itself as
// the current run, and the storage the previous run leaves behind becomes
// the single spare (the old spare goes to the emptied bucket, so no
// storage is dropped). The counting sort writes into the spare and hands
// the unsorted run's storage back as the new spare, and a bucket about to
// outgrow its capacity swaps into the spare when the spare is larger, so
// at one bucket per time unit the 10^5-entry buffers circulate instead of
// being regrown, and a warm engine's drains allocate nothing.
type bucketQueue struct {
	store   slotStore // the queued messages, one slot per delivery
	seq     int64     // deliveries pushed this run: the last one's seq
	buckets [][]delivery
	over    heapQueue // beyond the window (or before it is primed)
	overMax float64   // max key ever pushed to over since last rebuild

	base   float64 // window start key
	width  float64 // bucket width, > 0 and finite
	bkt    int     // next bucket ordinal to drain
	cur    []delivery
	curIdx int
	spare  []delivery // empty storage for a sort's output or a growing bucket
	counts []int32    // counting-sort bin offsets, recycled across drains

	primed bool // a window exists
}

// reset readies the queue for a run, retaining bucket and slot storage
// while the wheel size stays. n is the system size the run schedules for;
// the wheel is sized to exactly bucketsFor(n), so a queue reused after a
// large run does not keep scanning that run's wheel.
func (q *bucketQueue) reset(n int) {
	q.store.reset()
	q.seq = 0
	if want := bucketsFor(n); want != len(q.buckets) {
		q.buckets = make([][]delivery, want)
	}
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	// All n wake-ups wait in the overflow heap until the first pop primes
	// the window: size it for them once.
	q.over = slices.Grow(q.over[:0], n)
	q.overMax = math.Inf(-1)
	q.cur = q.cur[:0]
	q.curIdx = 0
	q.spare = q.spare[:0]
	q.bkt = 0
	q.primed = false
}

// len is the number of messages in flight: pushed and not yet popped.
func (q *bucketQueue) len() int { return q.store.occupied() }

func (q *bucketQueue) pushOver(d delivery) {
	if d.key > q.overMax {
		q.overMax = d.key
	}
	q.over.push(d, &q.store)
}

// push queues a copy of *m, whose RecvTime is its delivery time. Equal
// receive times pop in push order.
func (q *bucketQueue) push(m *Message) {
	q.seq++
	d := delivery{key: deliveryKey(m.RecvTime), seq: q.seq, slot: q.store.put(m)}
	if !q.primed {
		q.pushOver(d)
		return
	}
	o := (d.key - q.base) / q.width
	switch {
	case o < float64(q.bkt):
		// Belongs to already-drained territory: merge into the exact run.
		q.insertCur(d)
	case o < float64(len(q.buckets)):
		q.pushBucket(int(o), d)
	default:
		q.pushOver(d)
	}
}

// pushBucket appends d to bucket i. A full bucket first moves into the
// spare when the spare is larger, handing its own storage back as the new
// spare, so growth reuses drained storage before it allocates; otherwise
// it doubles, where append would grow a large slice by only 1.25x and
// copy a bucket that grows from empty to 10^5 entries a dozen times.
func (q *bucketQueue) pushBucket(i int, d delivery) {
	b := q.buckets[i]
	if len(b) == cap(b) {
		if cap(q.spare) > cap(b) {
			b, q.spare = append(q.spare[:0], b...), b[:0]
		} else {
			b = slices.Grow(b, len(b)+1)
		}
	}
	q.buckets[i] = append(b, d)
}

// insertCur splices d into the sorted current run at its exact position.
// The insertion point is always at or after curIdx: everything already
// popped is (at, seq)-before any new delivery, because sends never
// schedule earlier than the reception being processed and seq grows
// monotonically. The search never reads the popped entries before curIdx,
// whose slots pop has already freed for reuse.
func (q *bucketQueue) insertCur(d delivery) {
	lo, hi := q.curIdx, len(q.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.store.before(&d, &q.cur[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.cur = append(q.cur, delivery{})
	copy(q.cur[lo+1:], q.cur[lo:])
	q.cur[lo] = d
}

// pop removes the earliest delivery and returns its message, freeing the
// message's slot. Callers guarantee len() > 0.
func (q *bucketQueue) pop() Message {
	for q.curIdx >= len(q.cur) {
		q.advance()
	}
	d := q.cur[q.curIdx]
	q.curIdx++
	return q.store.take(d.slot)
}

// advance moves the drain position to the next non-empty bucket, which
// becomes the current run in place and is sorted; when the window is
// exhausted it re-seeds base/width from the overflow heap. Callers
// guarantee len() > 0.
func (q *bucketQueue) advance() {
	q.curIdx = 0
	for q.bkt < len(q.buckets) {
		b := q.bkt
		q.bkt++
		if len(q.buckets[b]) > 0 {
			q.cur, q.spare, q.buckets[b] = q.buckets[b], q.cur[:0], q.spare
			q.sortRun()
			return
		}
	}
	q.cur = q.cur[:0]
	q.rebuild()
}

// sortRun orders q.cur by the exact (at, seq) order. Small runs sort
// directly; oversized runs — the product of a degenerate window width —
// are first counting-sorted into ~len/4 bins by float key (monotone, so
// bin order respects the exact order and only bin-mates need comparing):
// one pass counts each bin, one scatters the run into a second buffer at
// the bins' prefix-sum offsets, and each bin's range is then sorted in
// place. The sorted copy — in the spare when it is large enough —
// becomes the current run and the unsorted run's storage the spare.
// Key-identical runs (where no float width can discriminate) fall
// through to the comparison sort, which settles them on the exact
// receive times and then seq.
func (q *bucketQueue) sortRun() {
	run := q.cur
	if len(run) <= bucketSortThreshold {
		q.store.sortDeliveries(run)
		return
	}
	lo, hi := run[0].key, run[0].key
	for _, d := range run[1:] {
		if d.key < lo {
			lo = d.key
		}
		if d.key > hi {
			hi = d.key
		}
	}
	nbins := bucketSortBins(len(run))
	width := (hi - lo) / float64(nbins-1)
	if !(width > 0) || math.IsInf(width, 0) {
		// Keys indistinguishable (or span overflow): comparison sort
		// settles it on (at, seq).
		q.store.sortDeliveries(run)
		return
	}
	if cap(q.counts) < nbins {
		q.counts = make([]int32, nbins)
	}
	counts := q.counts[:nbins]
	clear(counts)
	for _, d := range run {
		counts[int((d.key-lo)/width)]++
	}
	// Exclusive prefix sums: counts[b] becomes bin b's start offset.
	var off int32
	for b, c := range counts {
		counts[b] = off
		off += c
	}
	sorted := q.spare[:0]
	if cap(sorted) < len(run) {
		sorted = make([]delivery, 0, len(run))
	}
	sorted = sorted[:len(run)]
	for _, d := range run {
		b := int((d.key - lo) / width)
		sorted[counts[b]] = d
		counts[b]++
	}
	// After the scatter counts[b] is bin b's end offset.
	start := 0
	for _, end := range counts {
		if int(end)-start > 1 {
			q.store.sortDeliveries(sorted[start:end])
		}
		start = int(end)
	}
	q.cur, q.spare = sorted, run[:0]
}

// bucketSortBins picks the refinement bin count: about a quarter of the
// run length, clamped so the scratch table stays modest and small runs
// still spread.
func bucketSortBins(m int) int {
	n := 256
	for n < 1<<16 && n < m/4 {
		n <<= 1
	}
	return n
}

// rebuild starts a fresh window at the overflow minimum. The width spreads
// the overflow's key span across the buckets; degenerate spans (all keys
// equal, or spans that overflow float64) fall back to width 1, which
// degrades to sorted-run behavior but stays exact — sortRun's counting
// sort keeps even that case near-linear.
func (q *bucketQueue) rebuild() {
	q.primed = true
	q.base = q.over[0].key
	q.width = (q.overMax - q.base) / float64(len(q.buckets)-1)
	if !(q.width > 0) || math.IsInf(q.width, 0) {
		q.width = 1
	}
	for len(q.over) > 0 {
		o := (q.over[0].key - q.base) / q.width
		if !(o < float64(len(q.buckets))) {
			break
		}
		q.pushBucket(int(o), q.over.pop(&q.store))
	}
	if len(q.over) == 0 {
		q.overMax = math.Inf(-1)
	}
	q.bkt = 0
}
