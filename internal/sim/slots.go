package sim

// slotChunk is the number of messages per slotStore chunk (a power of
// two, so a slot splits into chunk and offset by shift and mask). A chunk
// is 26 KiB of pointer-holding memory that every engine allocates for its
// first message and the garbage collector scans while the engine lives;
// 4096-message chunks (416 KiB) cost a fleet of short jobs, such as the
// catalogue's, measurable wall time (DESIGN.md decision 10).
const (
	slotShift = 8
	slotChunk = 1 << slotShift
)

// slotStore is the delivery queue's in-flight message store. A message
// takes a slot when it is queued and gives it back when it is popped, so
// the store holds exactly the in-flight population: its capacity is the
// in-flight high-water mark rounded up to a chunk (the largest over the
// runs of its engine), however many messages a run sends. Slots live in
// fixed-size chunks that never move, so growing the store allocates one
// chunk and copies nothing; freed slots are reused LIFO from a stack.
// Where a message waits never shows in a trace — its ID comes from the
// engine's send counter.
type slotStore struct {
	chunks []*[slotChunk]Message // pooled across runs
	free   []int32               // freed slots, reused before fresh ones
	next   int                   // slots ever handed out this run
}

// reset empties the store for a new run, keeping its chunks.
func (s *slotStore) reset() {
	s.free = s.free[:0]
	s.next = 0
}

// put stores *m in a free slot and returns the slot.
func (s *slotStore) put(m *Message) int {
	var i int
	if n := len(s.free); n > 0 {
		i = int(s.free[n-1])
		s.free = s.free[:n-1]
	} else {
		i = s.next
		s.next++
		if i>>slotShift == len(s.chunks) {
			s.chunks = append(s.chunks, new([slotChunk]Message))
		}
	}
	s.chunks[i>>slotShift][i&(slotChunk-1)] = *m
	return i
}

// at returns the message waiting in slot i; it stays there until take.
func (s *slotStore) at(i int) *Message {
	return &s.chunks[i>>slotShift][i&(slotChunk-1)]
}

// take returns the message in slot i and frees the slot. The slot is not
// zeroed: the next put overwrites it, and clearUsed zeroes every slot the
// run used when the run ends, so a stale copy pins its payload at most
// until then, and never more payloads than the store held at its peak.
func (s *slotStore) take(i int) Message {
	s.free = append(s.free, int32(i))
	return *s.at(i)
}

// occupied is the number of slots holding an undelivered message.
func (s *slotStore) occupied() int { return s.next - len(s.free) }

// clearUsed zeroes every slot handed out this run, dropping the payloads
// of delivered messages and of those a truncated run left in flight.
func (s *slotStore) clearUsed() {
	for c := 0; c<<slotShift < s.next; c++ {
		clear(s.chunks[c][:min(slotChunk, s.next-c<<slotShift)])
	}
}
