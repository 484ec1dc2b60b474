// Package clocksync implements Algorithm 1 of the ABC paper: Byzantine
// fault-tolerant tick generation for n >= 3f+1 processes in a fully
// connected network, originally from Widder & Schmid's Θ-Model work and
// proved correct in the ABC model in Section 3.
//
// Every process maintains a clock k, initially broadcasting (tick 0).
// Receiving f+1 distinct (tick l) messages with l > k lets it catch up to
// l (at least one sender is correct); receiving n−f distinct (tick k)
// messages lets it advance to k+1. Each (tick j) is broadcast at most once.
//
// A process's state is bounded by the ticks it can still act on: it keeps
// a sender set only for tick values at or above its clock, drops a set as
// soon as the clock passes it, and never rescans them — the catch-up rule
// reads one running maximum (Proc.ready), so each reception costs O(1)
// amortized however long the run.
//
// The theorems of Section 3 are implemented as trace monitors in
// monitor.go: progress (Theorem 1), the causal-cone property (Lemma 4),
// synchrony on consistent cuts (Theorem 2), real-time precision
// (Theorem 3), and bounded progress (Theorem 4).
package clocksync

import (
	"fmt"

	"repro/internal/sim"
)

// Tick is the message payload of Algorithm 1.
type Tick struct {
	K int
	// Round piggybacks lock-step round data (Algorithm 2): nil when no
	// round message is attached. Piggybacking matters: the round r message
	// must travel inside (tick 2Ξr), since Theorem 5's proof identifies
	// receiving that tick with receiving the round message.
	Round *RoundData
}

// RoundData is a lock-step round message attached to a tick.
type RoundData struct {
	R       int
	Payload any
}

// Note is attached to each receive event (via Env.SetNote) for the
// monitors.
type Note struct {
	// Clock is the process's clock value after the step.
	Clock int
	// Advanced is true when the clock changed in this step.
	Advanced bool
	// Broadcast is true when at least one tick was broadcast in this step.
	// A step with Advanced && Broadcast is a "distinguished event" in the
	// sense of Theorem 4.
	Broadcast bool
}

// Proc is one Algorithm 1 process. Create with New; it implements
// sim.Process.
//
// Its reception state is bounded: recv holds a sender set only for tick
// values l >= k, and a set is deleted once k passes its
// tick, because neither rule ever reads a tick below k again — catch-up
// looks at l > k, advance at l = k, and k never decreases. ready is the
// highest tick any set has seen from f+1 distinct senders. Sender sets
// only grow, so the catch-up rule "some l > k has f+1 senders, take the
// largest" holds exactly when ready > k, with l = ready.
type Proc struct {
	n, f int
	k    int
	sent int // highest tick broadcast so far ([once] guard); -1 before wake-up
	// recv[l] is the set of distinct senders of (tick l) seen so far, kept
	// only while l >= k.
	recv map[int]*senderSet
	// ready is the highest tick received from f+1 distinct senders; -1
	// before any. It never decreases.
	ready int
	// attach, when non-nil, is invoked right before broadcasting tick j to
	// obtain piggybacked round data (used by internal/lockstep).
	attach func(env *sim.Env, j int) *RoundData
	// attachPer, when non-nil, replaces the uniform broadcast by
	// per-recipient sends with individually chosen round data — the
	// equivocation a Byzantine process may commit at the round level while
	// still ticking correctly. Takes precedence over attach.
	attachPer func(env *sim.Env, j int, to sim.ProcessID) *RoundData
	// onReceive, when non-nil, observes piggybacked round data.
	onReceive func(from sim.ProcessID, rd *RoundData)
}

// senderSet is the set of distinct senders of one tick value: a bitset
// over process IDs plus its population count.
type senderSet struct {
	bits  []uint64
	count int
}

// add inserts q and reports whether it was new.
func (s *senderSet) add(q sim.ProcessID) bool {
	w, bit := int(q)>>6, uint64(1)<<(uint(q)&63)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	s.count++
	return true
}

// New returns an Algorithm 1 process for an n-process system tolerating f
// Byzantine faults. It panics unless n >= 3f+1 and f >= 0 — a misconfigured
// resilience bound is a programming error, not a runtime condition.
func New(n, f int) *Proc {
	if f < 0 || n < 3*f+1 {
		panic(fmt.Sprintf("clocksync: need n >= 3f+1, got n=%d f=%d", n, f))
	}
	return &Proc{
		n:     n,
		f:     f,
		k:     0,
		sent:  -1,
		recv:  make(map[int]*senderSet),
		ready: -1,
	}
}

// Clock returns the current clock value k.
func (p *Proc) Clock() int { return p.k }

// SetPiggyback installs the hooks used by Algorithm 2 (internal/lockstep):
// attach is called right before broadcasting each tick j to obtain round
// data to piggyback; onReceive observes round data on incoming ticks. Must
// be called before the process takes its first step.
func (p *Proc) SetPiggyback(
	attach func(env *sim.Env, j int) *RoundData,
	onReceive func(from sim.ProcessID, rd *RoundData),
) {
	p.attach = attach
	p.onReceive = onReceive
}

// SetEquivocatingPiggyback installs a per-recipient piggyback hook: the
// process still runs Algorithm 1 faithfully (so it does not disturb clock
// progress) but may attach different round data for different recipients —
// the round-level equivocation available to Byzantine processes.
func (p *Proc) SetEquivocatingPiggyback(
	attachPer func(env *sim.Env, j int, to sim.ProcessID) *RoundData,
	onReceive func(from sim.ProcessID, rd *RoundData),
) {
	p.attachPer = attachPer
	p.onReceive = onReceive
}

// Step implements sim.Process.
func (p *Proc) Step(env *sim.Env, msg sim.Message) {
	env.SetNote(p.step(env, msg))
}

// step runs one computing step and returns the step's Note.
func (p *Proc) step(env *sim.Env, msg sim.Message) Note {
	advanced := false
	broadcast := false

	send := func(j int) {
		// [once]: each tick value is broadcast at most once.
		if j <= p.sent {
			return
		}
		p.sent = j
		if p.attachPer != nil {
			for to := sim.ProcessID(0); int(to) < env.N(); to++ {
				env.Send(to, Tick{K: j, Round: p.attachPer(env, j, to)})
			}
		} else {
			tick := Tick{K: j}
			if p.attach != nil {
				tick.Round = p.attach(env, j)
			}
			env.Broadcast(tick)
		}
		broadcast = true
	}

	switch m := msg.Payload.(type) {
	case sim.Wakeup:
		// Line 2: send (tick 0) to all [once].
		send(0)
	case Tick:
		if m.K < 0 {
			break // malformed; only Byzantine processes send these
		}
		if p.onReceive != nil && m.Round != nil {
			p.onReceive(msg.From, m.Round)
		}
		if m.K >= p.k {
			p.record(m.K, msg.From)
		}
	}

	// Apply catch-up and advance rules to fixpoint. Multiple rules can be
	// enabled by one reception (e.g. a catch-up unlocking an advance).
	for {
		progressed := false

		// Catch-up rule (line 3): received (tick l) from f+1 distinct
		// processes with l > k. Apply with the largest such l, which is
		// ready whenever ready > k (see Proc).
		if p.ready > p.k {
			best := p.ready
			for j := p.k + 1; j <= best; j++ {
				send(j)
			}
			p.setClock(best)
			advanced = true
			progressed = true
		}

		// Advance rule (line 6): received (tick k) from n−f distinct
		// processes.
		if s := p.recv[p.k]; s != nil && s.count >= p.n-p.f {
			send(p.k + 1)
			p.setClock(p.k + 1)
			advanced = true
			progressed = true
		}

		if !progressed {
			break
		}
	}

	return Note{Clock: p.k, Advanced: advanced, Broadcast: broadcast}
}

// record adds sender q to the set of (tick l), l >= k, and raises ready
// to l when the set reaches f+1 senders.
func (p *Proc) record(l int, q sim.ProcessID) {
	s := p.recv[l]
	if s == nil {
		s = &senderSet{bits: make([]uint64, (p.n+63)>>6)}
		p.recv[l] = s
	}
	if s.add(q) && s.count == p.f+1 {
		p.ready = l // l >= k >= ready: every step ends with ready <= k
	}
}

// setClock raises k to k2, deleting the sender sets of the ticks it
// passes. The loop is as long as the catch-up's send loop, so it adds no
// asymptotic cost.
func (p *Proc) setClock(k2 int) {
	for l := p.k; l < k2; l++ {
		delete(p.recv, l)
	}
	p.k = k2
}

// Spawner returns a sim.Config Spawn function creating Algorithm 1
// processes.
func Spawner(n, f int) func(sim.ProcessID) sim.Process {
	return func(sim.ProcessID) sim.Process { return New(n, f) }
}

// AllReached returns a sim.Config Until predicate that stops the run once
// every correct process's clock is at least k. Faulty process IDs are
// skipped.
func AllReached(k int, faulty map[sim.ProcessID]sim.Fault) func([]sim.Process) bool {
	return func(procs []sim.Process) bool {
		for id, pr := range procs {
			if _, bad := faulty[sim.ProcessID(id)]; bad {
				continue
			}
			cs, ok := pr.(*Proc)
			if !ok || cs.Clock() < k {
				return false
			}
		}
		return true
	}
}
