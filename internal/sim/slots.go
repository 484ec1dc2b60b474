package sim

// slotChunk is the number of messages per slotStore chunk (a power of
// two, so a slot splits into chunk and offset by shift and mask).
const (
	slotShift = 12
	slotChunk = 1 << slotShift
)

// slotStore is the bounded-retention in-flight message store. A message
// that will be delivered takes a slot when it is sent and gives it back
// when it is delivered, so the store holds exactly the in-flight
// population: its capacity is the in-flight high-water mark rounded up to
// a chunk (the largest over the runs of its engine), however many
// messages a run sends. Slots live in
// fixed-size chunks that never move, so growing the store allocates one
// chunk and copies nothing; freed slots are reused LIFO from a stack.
// Where a message waits never shows in a trace — its ID still comes from
// the engine's send counter.
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

// take returns the message in slot i, zeroes the slot so it pins no
// payload, and frees it.
func (s *slotStore) take(i int) Message {
	slot := s.at(i)
	m := *slot
	*slot = Message{}
	s.free = append(s.free, int32(i))
	return m
}

// occupied is the number of slots holding an undelivered message.
func (s *slotStore) occupied() int { return s.next - len(s.free) }

// clearUsed zeroes every slot handed out this run, dropping the payloads
// of messages a truncated run left in flight. A drained run's slots are
// already zero.
func (s *slotStore) clearUsed() {
	if s.occupied() == 0 {
		return
	}
	for c := 0; c<<slotShift < s.next; c++ {
		clear(s.chunks[c][:])
	}
}
