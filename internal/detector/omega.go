package detector

import (
	"repro/internal/sim"
)

// LeaderMsg disseminates a core member's current leader choice. Phase is
// the electing member's phase number at the time of the announcement; it
// orders announcements (followers adopt the highest-phase choice they
// hear) and bounds relaying — a relaying process forwards each phase at
// most once, so dissemination over sparse topologies terminates.
type LeaderMsg struct {
	Leader sim.ProcessID
	Phase  int
}

// OmegaCore is a member of the f+2 core implementing the Ω sketch of
// Section 6 for crash faults: in repeated phases it queries all other core
// members and runs timeout chains with each of them in parallel; when any
// single chain reaches ⌈2Ξ⌉ messages the phase ends, the suspicion set is
// recomputed from that phase's replies alone, the smallest unsuspected
// core id is chosen as leader, and the choice is broadcast to the whole
// system.
//
// Suspicion is per phase, not permanent: a member that missed a phase
// (down under a recovery schedule) is suspected for exactly the phases it
// missed and rehabilitated by its first reply after coming back, so the
// detector re-elects the smallest live core id across crash-recovery
// faults. Under permanent crashes the two policies coincide — a crashed
// member never replies again, so its suspicion re-derives every phase —
// and because beginPhase queries every core member regardless of
// suspicion, the message structure is identical too. The Fig. 3 accuracy
// argument applies per phase, so suspicion is perfect; once the last
// crash (or recovery) has settled, every later phase elects the same
// leader at every correct core member.
//
// Core members communicate pairwise (Query/Ping go through Env.Send), so
// the communication graph must link every pair of core members — on
// sparse fabrics, place the core on a fully connected overlay (see
// CoreTopology). Leader announcements, by contrast, travel by broadcast:
// on a sparse topology a single broadcast only reaches out-neighbors, so
// set Relay on every process (core and follower) to flood each phase's
// announcement hop by hop across the network.
type OmegaCore struct {
	Core     []sim.ProcessID // the f+2 core members, including self
	ChainLen int
	MaxPhase int // stop starting new phases after this many (keeps runs finite)
	// Relay, when set, re-broadcasts received leader announcements whose
	// phase is newer than any this process has broadcast or relayed —
	// required for dissemination beyond one hop on sparse topologies,
	// redundant (and therefore off by default) on the fully connected one.
	Relay bool

	self      sim.ProcessID
	phase     int
	relayed   int                   // highest announcement phase broadcast or relayed, -1 initially
	legs      map[sim.ProcessID]int // per-partner chain length this phase
	replied   map[sim.ProcessID]bool
	suspected map[sim.ProcessID]bool
	leader    sim.ProcessID
	started   bool
}

var _ sim.Process = (*OmegaCore)(nil)

// Leader returns the current leader choice.
func (o *OmegaCore) Leader() sim.ProcessID { return o.leader }

// Phase returns the current phase number.
func (o *OmegaCore) Phase() int { return o.phase }

// Suspects reports whether q is suspected.
func (o *OmegaCore) Suspects(q sim.ProcessID) bool { return o.suspected[q] }

// Step implements sim.Process.
func (o *OmegaCore) Step(env *sim.Env, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case sim.Wakeup:
		o.self = env.Self()
		o.suspected = make(map[sim.ProcessID]bool)
		o.leader = o.self
		o.relayed = -1
		o.started = true
		o.beginPhase(env)
	case Query:
		env.Send(msg.From, Reply{Phase: pl.Phase})
	case Ping:
		env.Send(msg.From, Pong{Phase: pl.Phase, Seq: pl.Seq})
	case Reply:
		if pl.Phase == o.phase {
			o.replied[msg.From] = true
		}
	case LeaderMsg:
		if o.Relay && pl.Phase > o.relayed {
			o.relayed = pl.Phase
			env.Broadcast(pl)
		}
	case Pong:
		if pl.Phase != o.phase {
			return // stale chain from a finished phase
		}
		o.legs[msg.From] += 2
		if o.legs[msg.From] >= o.ChainLen {
			o.endPhase(env)
			return
		}
		env.Send(msg.From, Ping{Phase: o.phase, Seq: pl.Seq + 1})
	}
}

func (o *OmegaCore) beginPhase(env *sim.Env) {
	o.legs = make(map[sim.ProcessID]int)
	o.replied = make(map[sim.ProcessID]bool)
	for _, q := range o.Core {
		if q == o.self {
			continue
		}
		env.Send(q, Query{Phase: o.phase})
		env.Send(q, Ping{Phase: o.phase, Seq: 0})
	}
}

func (o *OmegaCore) endPhase(env *sim.Env) {
	for _, q := range o.Core {
		if q == o.self {
			continue
		}
		o.suspected[q] = !o.replied[q]
	}
	// Elect the smallest unsuspected core member (self is never
	// self-suspected).
	o.leader = o.self
	for _, q := range o.Core {
		if !o.suspected[q] && q < o.leader {
			o.leader = q
		}
	}
	if o.phase > o.relayed {
		o.relayed = o.phase
	}
	env.Broadcast(LeaderMsg{Leader: o.leader, Phase: o.phase})
	o.phase++
	if o.phase < o.MaxPhase {
		o.beginPhase(env)
	}
}

// OmegaFollower is a non-core process: it adopts the highest-phase leader
// announcement it receives (ties keep the first arrival, so adoption is
// deterministic under the engine's delivery order).
type OmegaFollower struct {
	// Relay re-broadcasts each newly adopted announcement once, flooding
	// it across sparse topologies where the core's own broadcast reaches
	// only its out-neighbors. Followers beyond one hop from the core never
	// hear a leader without it.
	Relay bool

	leader sim.ProcessID
	phase  int
	heard  bool
}

var _ sim.Process = (*OmegaFollower)(nil)

// Leader returns the adopted leader and whether any announcement arrived.
func (o *OmegaFollower) Leader() (sim.ProcessID, bool) { return o.leader, o.heard }

// Step implements sim.Process.
func (o *OmegaFollower) Step(env *sim.Env, msg sim.Message) {
	lm, ok := msg.Payload.(LeaderMsg)
	if !ok {
		return
	}
	if !o.heard || lm.Phase > o.phase {
		o.leader, o.phase, o.heard = lm.Leader, lm.Phase, true
		if o.Relay {
			env.Broadcast(lm)
		}
	}
}

// CoreTopology augments base with a fully connected overlay among the
// core members: Ω's pairwise Query/Ping traffic requires direct links
// between every two core members, which sparse fabrics do not provide.
// The overlay models the standard deployment — a small designated
// monitoring core on dedicated interconnect, with leader announcements
// flooding the ordinary (sparse) network via Relay. A nil base (fully
// connected) is returned unchanged.
func CoreTopology(base *sim.Links, core []sim.ProcessID) *sim.Links {
	if base == nil {
		return nil
	}
	adj := make([][]sim.ProcessID, base.N())
	for p := range adj {
		adj[p] = base.Out(sim.ProcessID(p))
	}
	for _, p := range core {
		// Copy first: Out aliases base's storage, so appending in place
		// would overwrite the next row.
		adj[p] = append(append([]sim.ProcessID(nil), adj[p]...), core...)
	}
	return sim.NewLinks(base.N(), adj)
}
