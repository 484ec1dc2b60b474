package sim

import "fmt"

// Process is a message-driven state machine. Implementations must be
// deterministic: the sequence of steps is fully determined by the sequence
// of received messages. Algorithms intended for the ABC model must be
// time-free — they observe only message contents and senders, never
// simulated time.
type Process interface {
	// Step executes one atomic computing step triggered by msg. The step
	// takes zero simulated time; messages emitted through env are sent at
	// the instant the triggering message was received.
	Step(env *Env, msg Message)
}

// ProcessFunc adapts a function to the Process interface.
type ProcessFunc func(env *Env, msg Message)

// Step implements Process.
func (f ProcessFunc) Step(env *Env, msg Message) { f(env, msg) }

// Env is the interface a computing step uses to interact with the system.
// An Env is only valid for the duration of one Step call.
type Env struct {
	self      ProcessID
	n         int
	stepIndex int
	out       []pendingSend
	note      any
	topo      *Links // nil: fully connected
}

type pendingSend struct {
	to      ProcessID
	payload any
}

// Self returns the executing process's ID.
func (e *Env) Self() ProcessID { return e.self }

// N returns the number of processes in the system.
func (e *Env) N() int { return e.n }

// StepIndex returns the index of the current computing step at this process
// (0 for the wake-up step). Counting own steps is permitted in
// message-driven models; observing real time is not.
func (e *Env) StepIndex() int { return e.stepIndex }

// Send emits a message to the given process as part of the current step.
// Sending to a process not connected by the topology panics: in a
// point-to-point network an algorithm can only use existing links, and
// attempting otherwise is a programming error. Sending to oneself is
// always permitted — self-delivery is a local operation, not a network
// link (Algorithm 1 assumes it unconditionally).
func (e *Env) Send(to ProcessID, payload any) {
	if to < 0 || int(to) >= e.n {
		panic(fmt.Sprintf("sim: send to invalid process %d", to))
	}
	if to != e.self && e.topo != nil && !e.topo.Linked(e.self, to) {
		panic(fmt.Sprintf("sim: no link %d -> %d in topology", e.self, to))
	}
	e.out = append(e.out, pendingSend{to: to, payload: payload})
}

// Broadcast sends payload to every out-neighbor in the topology and to the
// sender itself. Self-delivery is unconditional — the paper assumes it for
// Algorithm 1, and a topology describes network links, which a process does
// not need to reach itself — so a topology without a self-loop cannot
// suppress it, and one with a self-loop does not duplicate it.
//
// Both paths emit sends in ascending recipient order, with self woven into
// its sorted position; the sparse one costs O(out-degree), not O(N).
func (e *Env) Broadcast(payload any) {
	if e.topo == nil {
		for to := ProcessID(0); int(to) < e.n; to++ {
			e.out = append(e.out, pendingSend{to: to, payload: payload})
		}
		return
	}
	selfDone := false
	for _, to := range e.topo.Out(e.self) {
		if !selfDone && to >= e.self {
			selfDone = true
			if to != e.self {
				e.out = append(e.out, pendingSend{to: e.self, payload: payload})
			}
		}
		e.out = append(e.out, pendingSend{to: to, payload: payload})
	}
	if !selfDone {
		e.out = append(e.out, pendingSend{to: e.self, payload: payload})
	}
}

// SetNote attaches an annotation to the receive event of the current step;
// it is stored in Event.Note. Monitors use it to observe algorithm state
// (e.g. Algorithm 1's clock value) without breaking encapsulation.
func (e *Env) SetNote(v any) { e.note = v }
