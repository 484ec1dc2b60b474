// Package detector implements failure detection in the ABC model for
// systems with crash faults.
//
// The timeout mechanism is exactly Fig. 3 of the paper: a monitor process
// p sends a query to a target and, from the same computing step, starts a
// ping-pong chain with partner processes. The ABC synchrony condition
// makes the absence of a reply meaningful: if the reply arrived after a
// causal chain of ⌈2Ξ⌉ messages has completed, it would close a relevant
// cycle with ratio >= Ξ — inadmissible. Hence once the chain completes
// without a reply, the target has crashed (strong accuracy), and a crashed
// target is eventually suspected because the chain keeps growing (strong
// completeness). This yields a perfect failure detector.
//
// Omega (Section 6's sketch) restricts the mechanism to a core of f+2
// processes that monitor each other in repeated phases and disseminate the
// smallest unsuspected core id as leader.
package detector

import (
	"repro/internal/rat"
	"repro/internal/sim"
)

// Message payloads.
type (
	// Query asks the target to reply; Phase tags repeated monitoring
	// rounds (0 for one-shot monitors).
	Query struct{ Phase int }
	// Reply answers a Query.
	Reply struct{ Phase int }
	// Ping and Pong form the timeout chains.
	Ping struct{ Phase, Seq int }
	Pong struct{ Phase, Seq int }
)

// ChainLen returns the timeout chain length ⌈2Ξ⌉ for a given Ξ: a reply
// arriving after a chain of that many messages would close a relevant
// cycle with |Z−|/|Z+| >= Ξ.
func ChainLen(xi rat.Rat) int {
	return int(xi.MulInt(2).Ceil())
}

// Monitor is a one-shot perfect failure detector (the exact Fig. 3
// scenario): it queries all targets at wake-up and ping-pongs with its
// partner; targets that have not replied when the chain completes are
// suspected, permanently.
type Monitor struct {
	Partner  sim.ProcessID
	Targets  []sim.ProcessID
	ChainLen int

	legs      int
	replied   map[sim.ProcessID]bool
	suspected map[sim.ProcessID]bool
	done      bool
	// AccuracyViolations counts replies that arrived from an
	// already-suspected target — impossible in admissible executions.
	AccuracyViolations int
}

var _ sim.Process = (*Monitor)(nil)

// Suspects returns whether the target is currently suspected.
func (m *Monitor) Suspects(q sim.ProcessID) bool { return m.suspected[q] }

// Step implements sim.Process.
func (m *Monitor) Step(env *sim.Env, msg sim.Message) {
	if m.replied == nil {
		m.replied = make(map[sim.ProcessID]bool)
		m.suspected = make(map[sim.ProcessID]bool)
	}
	switch pl := msg.Payload.(type) {
	case sim.Wakeup:
		for _, q := range m.Targets {
			env.Send(q, Query{})
		}
		env.Send(m.Partner, Ping{Seq: 0})
	case Reply:
		if m.suspected[msg.From] {
			m.AccuracyViolations++
		}
		m.replied[msg.From] = true
	case Pong:
		if m.done {
			return
		}
		m.legs += 2 // the ping and its pong extend the chain by two
		if m.legs >= m.ChainLen {
			m.done = true
			for _, q := range m.Targets {
				if !m.replied[q] {
					m.suspected[q] = true
				}
			}
			return
		}
		env.Send(m.Partner, Ping{Seq: pl.Seq + 1})
	}
}

// Responder answers queries and pings; run it on partner and target
// processes.
type Responder struct{}

var _ sim.Process = Responder{}

// Step implements sim.Process.
func (Responder) Step(env *sim.Env, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case Query:
		env.Send(msg.From, Reply{Phase: pl.Phase})
	case Ping:
		env.Send(msg.From, Pong{Phase: pl.Phase, Seq: pl.Seq})
	}
}
