// Package lockstep implements Algorithm 2 of the ABC paper: a lock-step
// round simulation layered on the Byzantine clock synchronization of
// Algorithm 1 (internal/clocksync). Clocks are treated as phase counters;
// a round consists of X = ⌈2Ξ⌉ phases, and the round r message of each
// process is piggybacked on its (tick r·X) broadcast — piggybacking is
// essential, since Theorem 5's proof identifies receiving (tick r·X) from q
// with receiving q's round r message.
//
// Theorem 5 (lock-step rounds): every correct process receives the round r
// messages of all correct processes before it starts round r+1. The
// package records what each round computation actually received, so the
// theorem is checked by CheckLockStep against the trace.
package lockstep

import (
	"fmt"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/sim"
)

// App is a deterministic round-based application driven by the lock-step
// simulation — the interface a synchronous algorithm (e.g. consensus)
// programs against.
type App interface {
	// Init returns the round 0 message, broadcast at start(0) from the
	// process's wake-up step.
	Init(self sim.ProcessID, n int) any
	// Round executes the round r computation (r >= 1): received holds the
	// round r−1 messages indexed by sender (nil for processes whose
	// message did not arrive — possible only for faulty senders, by
	// Theorem 5). It returns the round r message to broadcast.
	Round(r int, received []any) any
}

// RoundRecord is what one round computation observed, kept for monitors.
type RoundRecord struct {
	R        int
	Received []any
}

// Proc merges Algorithm 2 with an Algorithm 1 core. It implements
// sim.Process.
type Proc struct {
	cs       *clocksync.Proc
	app      App
	boundary func(r int) int64
	self     sim.ProcessID
	n        int
	r        int
	// buf[r][q] is the round r payload received from q (first write wins).
	buf     map[int][]any
	records []RoundRecord
}

// New returns a lock-step process for model m running app, in a system of
// n processes with f Byzantine faults. Round r starts at tick r·X with
// X = ⌈2Ξ⌉.
func New(m core.Model, n, f int, app App) *Proc {
	x := m.PhasesPerRound()
	return NewWithBoundary(n, f, app, func(r int) int64 { return int64(r) * x })
}

// NewWithBoundary is New with a custom round-boundary function: round r
// starts when the clock broadcasts tick boundary(r). boundary must be
// strictly increasing with boundary(0) == 0. The eventual-model variants
// of Section 6 use doubling round durations (internal/variants).
func NewWithBoundary(n, f int, app App, boundary func(r int) int64) *Proc {
	if boundary(0) != 0 {
		panic("lockstep: boundary(0) must be 0")
	}
	p := &Proc{
		cs:       clocksync.New(n, f),
		app:      app,
		boundary: boundary,
		n:        n,
		r:        -1,
		buf:      make(map[int][]any),
	}
	p.cs.SetPiggyback(p.attach, p.onReceive)
	return p
}

// Step implements sim.Process by delegating to the Algorithm 1 core; round
// logic runs inside the tick-broadcast hook.
func (p *Proc) Step(env *sim.Env, msg sim.Message) {
	if _, ok := msg.Payload.(sim.Wakeup); ok {
		p.self = env.Self()
	}
	p.cs.Step(env, msg)
}

// attach is invoked by the clock core just before broadcasting tick j; it
// returns the piggybacked round data, if tick j is a round boundary.
func (p *Proc) attach(env *sim.Env, j int) *clocksync.RoundData {
	// The [once] guard broadcasts each tick exactly once, in order, so the
	// only boundary j can match is the next round's.
	if int64(j) != p.boundary(p.r+1) {
		return nil
	}
	r := p.r + 1
	p.r = r
	var payload any
	if r == 0 {
		payload = p.app.Init(env.Self(), p.n)
	} else {
		received := p.take(r - 1)
		p.records = append(p.records, RoundRecord{R: r, Received: received})
		payload = p.app.Round(r, received)
	}
	return &clocksync.RoundData{R: r, Payload: payload}
}

// onReceive stores piggybacked round data from incoming ticks.
func (p *Proc) onReceive(from sim.ProcessID, rd *clocksync.RoundData) {
	if rd.R < 0 || from < 0 || int(from) >= p.n {
		return
	}
	slot := p.buf[rd.R]
	if slot == nil {
		slot = make([]any, p.n)
		p.buf[rd.R] = slot
	}
	if slot[from] == nil {
		slot[from] = rd.Payload
	}
}

// take removes and returns the buffered round r messages.
func (p *Proc) take(r int) []any {
	received := p.buf[r]
	if received == nil {
		received = make([]any, p.n)
	}
	delete(p.buf, r)
	return received
}

// Round returns the highest round this process has started.
func (p *Proc) Round() int { return p.r }

// App returns the application state machine.
func (p *Proc) App() App { return p.app }

// Records returns the per-round observations (for Theorem 5 checking).
func (p *Proc) Records() []RoundRecord { return p.records }

// Spawner returns a sim.Config Spawn function; newApp creates each
// process's application instance.
func Spawner(m core.Model, n, f int, newApp func(sim.ProcessID) App) func(sim.ProcessID) sim.Process {
	return func(id sim.ProcessID) sim.Process { return New(m, n, f, newApp(id)) }
}

// AllReachedRound returns an Until predicate stopping the run once every
// correct process has started round r.
func AllReachedRound(r int, faults map[sim.ProcessID]sim.Fault) func([]sim.Process) bool {
	return func(procs []sim.Process) bool {
		for id, pr := range procs {
			if _, bad := faults[sim.ProcessID(id)]; bad {
				continue
			}
			ls, ok := pr.(*Proc)
			if !ok || ls.Round() < r {
				return false
			}
		}
		return true
	}
}

// CheckLockStep verifies Theorem 5 against the final process states: every
// round computation at a correct process received the round message of
// every correct process.
func CheckLockStep(procs []sim.Process, faults map[sim.ProcessID]sim.Fault) error {
	return checkLockStep(procs, faults, false)
}

// CheckUniformLockStep verifies the uniform variant the paper notes after
// Theorem 5: lock-step rounds are also obeyed by faulty processes until
// they first behave erroneously. Crash-faulty processes execute the
// correct algorithm up to their crash, so every round they did start must
// also have seen all correct round messages. Byzantine processes are
// excluded (they need not run the algorithm at all).
func CheckUniformLockStep(procs []sim.Process, faults map[sim.ProcessID]sim.Fault) error {
	return checkLockStep(procs, faults, true)
}

func checkLockStep(procs []sim.Process, faults map[sim.ProcessID]sim.Fault, uniform bool) error {
	for id, pr := range procs {
		if f, bad := faults[sim.ProcessID(id)]; bad {
			if !uniform || f.Byzantine != nil {
				continue
			}
			// Crash-faulty with the correct algorithm: include its
			// pre-crash records in the uniform check.
		}
		ls, ok := pr.(*Proc)
		if !ok {
			return fmt.Errorf("lockstep: process %d is not a lockstep.Proc", id)
		}
		for _, rec := range ls.Records() {
			for q := 0; q < ls.n; q++ {
				if _, bad := faults[sim.ProcessID(q)]; bad {
					continue
				}
				if rec.Received[q] == nil {
					return fmt.Errorf(
						"lockstep: p%d started round %d without the round %d message of correct p%d",
						id, rec.R, rec.R-1, q)
				}
			}
		}
	}
	return nil
}
