package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rat"
	"repro/internal/sim"
)

// Fault injection as a first-class, sweepable workload axis. FaultParams
// declares a textual fault spec alongside the seed for randomized
// adversaries; ResolveFaults turns the resolved values into the
// sim.Config fault map and the message-level fault layer. The spec sweeps
// like any other parameter (`abcsim -sweep faults=none,crash/1@0,crash/1@3`
// for crash-at-step grids, `-sweep faults=drop/0.1,drop/0.3` for loss
// rates), so every registered source shares one fault vocabulary instead
// of hand-built sim.Fault maps.
//
// Spec grammar — "none", or clauses joined by '+' (never ',', which
// separates sweep values):
//
//	crash/K[@S]        K processes crash after S computing steps (default
//	                   0: silent from the start, not even a wake-up step)
//	byz/K[@B]          K live Byzantine adversaries with step budget B
//	                   (default 60), built by the source's ByzFactory
//	script/K[@T]       K scripted-message adversaries, each injecting one
//	                   junk payload at time T (default 0) to its smallest
//	                   out-neighbor under the resolved topology (itself
//	                   when the topology gives it no out-links); the
//	                   processes otherwise run the correct algorithm but
//	                   count as faulty
//	recover/K@S..E     K recoverable processes, down over [S, E) and
//	                   resuming per the recovery=/inflight= parameters;
//	                   repeated recover clauses with the same explicit
//	                   target merge into one multi-interval schedule
//	drop/P             every cross-process message is lost i.i.d. with
//	                   probability P in [0, 1]
//	dup/P              every delivered cross-process message is delivered
//	                   twice with probability P
//	spike/P[@D]        every delivery is delayed by an extra D (default 1)
//	                   with probability P
//	partition/SPEC@S..E  transient partition over [S, E); SPEC is "halves"
//	                   (processes 0..⌈n/2⌉-1 vs the rest) or pI (process I
//	                   vs everyone else)
//
// Process-claiming clauses (crash, byz, script, recover) take either a
// count K — IDs assigned n-1 downward in clause order, matching the
// repository convention (clocksync.Adversaries) — or an explicit target
// pI (e.g. recover/p0@4..12 to take down process 0, a leader,
// specifically). Sources validate the total against their own
// resilience bound f via len(faults).
func FaultParams() []Param {
	return []Param{
		{Name: "faults", Kind: String, Default: "none",
			Doc: "fault spec: none, or '+'-joined crash/K[@S], byz/K[@B], script/K[@T], recover/K@S..E, drop/P, dup/P, spike/P[@D], partition/halves|pI@S..E (K is a count or an explicit pI target)"},
		{Name: "faultseed", Kind: Int64, Default: "-1",
			Doc: "seed for the Byzantine processes of byz/ clauses; -1 derives it from the job seed"},
		{Name: "recovery", Kind: String, Default: "durable",
			Doc: "state a recover/ process resumes with: durable (keeps its state) or amnesia (respawned from scratch)"},
		{Name: "inflight", Kind: String, Default: "drop",
			Doc: "messages arriving during a down interval: drop (unprocessed receptions) or hold (deferred to recovery)"},
	}
}

// ByzFactory builds a source's i-th live Byzantine adversary for process
// id with the given step budget. Sources without a live adversary family
// pass nil, which rejects byz clauses at job build.
type ByzFactory func(i int, id sim.ProcessID, budget int) sim.Process

// faultClause is one parsed spec clause, remembering its position and raw
// text so every downstream error can name the offending token.
type faultClause struct {
	pos    int    // 1-based clause position within the spec
	text   string // raw clause text
	kind   string
	k      int           // claimed process count (count-form clauses)
	target sim.ProcessID // explicit pI target; -1 for count-form
	step   int           // crash: CrashAfter
	budget int           // byz: adversary step budget
	at     rat.Rat       // script: injection time
	from   rat.Rat       // recover, partition: interval start
	until  rat.Rat       // recover, partition: interval end
	prob   float64       // drop, dup, spike: probability
	extra  rat.Rat       // spike: added delay
	half   bool          // partition/halves
}

// clauseErr formats a parse or resolution error naming the clause's
// position and text, so a malformed multi-clause spec points at the
// offending token rather than reporting a generic failure.
func clauseErr(pos int, text, format string, args ...any) error {
	return fmt.Errorf("workload: faults clause %d (%q): %s", pos, text, fmt.Sprintf(format, args...))
}

// parseFaults parses the spec grammar documented on FaultParams.
func parseFaults(spec string) ([]faultClause, error) {
	if spec == "none" {
		return nil, nil
	}
	var clauses []faultClause
	for i, part := range strings.Split(spec, "+") {
		c, err := parseClause(i+1, part)
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, c)
	}
	return clauses, nil
}

// parseTarget parses the count position of a process-claiming clause:
// either a count K or an explicit target pI.
func (c *faultClause) parseTarget(val string) error {
	if rest, ok := strings.CutPrefix(val, "p"); ok {
		id, err := strconv.Atoi(rest)
		if err != nil || id < 0 {
			return clauseErr(c.pos, c.text, "bad target %q (want pI with I >= 0)", val)
		}
		c.target = sim.ProcessID(id)
		c.k = 1
		return nil
	}
	k, err := strconv.Atoi(val)
	if err != nil || k < 0 {
		return clauseErr(c.pos, c.text, "bad count %q", val)
	}
	c.k = k
	return nil
}

// parseSpan parses the S..E interval argument of recover and partition
// clauses.
func parseSpan(pos int, text, arg string) (from, until rat.Rat, err error) {
	fs, us, ok := strings.Cut(arg, "..")
	if !ok {
		return from, until, clauseErr(pos, text, "bad interval %q (want S..E)", arg)
	}
	if from, err = rat.Parse(fs); err != nil || from.Sign() < 0 {
		return from, until, clauseErr(pos, text, "bad interval start %q", fs)
	}
	if until, err = rat.Parse(us); err != nil {
		return from, until, clauseErr(pos, text, "bad interval end %q", us)
	}
	if !from.Less(until) {
		return from, until, clauseErr(pos, text, "empty interval %q", arg)
	}
	return from, until, nil
}

// parseProb parses the probability value of drop/dup/spike clauses.
func parseProb(pos int, text, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, clauseErr(pos, text, "bad probability %q (want a value in [0, 1])", val)
	}
	return p, nil
}

func parseClause(pos int, text string) (faultClause, error) {
	c := faultClause{pos: pos, text: text, target: -1, budget: 60, extra: rat.One}
	kind, rest, ok := strings.Cut(text, "/")
	if !ok {
		return c, clauseErr(pos, text, "want kind/K[@arg]")
	}
	c.kind = kind
	val, arg, hasArg := strings.Cut(rest, "@")
	switch kind {
	case "crash", "byz", "script", "recover":
		if err := c.parseTarget(val); err != nil {
			return c, err
		}
	}
	var err error
	switch kind {
	case "crash":
		if hasArg {
			if c.step, err = strconv.Atoi(arg); err != nil || c.step < 0 {
				return c, clauseErr(pos, text, "bad crash step %q", arg)
			}
		}
	case "byz":
		if hasArg {
			if c.budget, err = strconv.Atoi(arg); err != nil || c.budget < 1 {
				return c, clauseErr(pos, text, "bad budget %q", arg)
			}
		}
	case "script":
		if hasArg {
			if c.at, err = rat.Parse(arg); err != nil || c.at.Sign() < 0 {
				return c, clauseErr(pos, text, "bad time %q", arg)
			}
		}
	case "recover":
		if !hasArg {
			return c, clauseErr(pos, text, "recover needs a down interval (want recover/K@S..E)")
		}
		if c.from, c.until, err = parseSpan(pos, text, arg); err != nil {
			return c, err
		}
	case "drop", "dup":
		if hasArg {
			return c, clauseErr(pos, text, "%s takes no @argument (got %q)", kind, arg)
		}
		if c.prob, err = parseProb(pos, text, val); err != nil {
			return c, err
		}
	case "spike":
		if c.prob, err = parseProb(pos, text, val); err != nil {
			return c, err
		}
		if hasArg {
			if c.extra, err = rat.Parse(arg); err != nil || c.extra.Sign() < 0 {
				return c, clauseErr(pos, text, "bad spike delay %q", arg)
			}
		}
	case "partition":
		if !hasArg {
			return c, clauseErr(pos, text, "partition needs an interval (want partition/SPEC@S..E)")
		}
		if rest, ok := strings.CutPrefix(val, "p"); ok {
			id, err := strconv.Atoi(rest)
			if err != nil || id < 0 {
				return c, clauseErr(pos, text, "bad partition spec %q (want halves or pI)", val)
			}
			c.target = sim.ProcessID(id)
		} else if val == "halves" {
			c.half = true
		} else {
			return c, clauseErr(pos, text, "bad partition spec %q (want halves or pI)", val)
		}
		if c.from, c.until, err = parseSpan(pos, text, arg); err != nil {
			return c, err
		}
	default:
		return c, clauseErr(pos, text, "unknown kind %q (want crash, byz, script, recover, drop, dup, spike, partition)", kind)
	}
	return c, nil
}

// scriptTarget picks the deterministic recipient of a scripted send from
// p: its smallest out-neighbor other than itself (0 under the fully
// connected default), itself when the topology gives it no out-links —
// self-sends are always legal (see sim.Fault).
func scriptTarget(p sim.ProcessID, n int, topo *sim.Links) sim.ProcessID {
	if topo == nil {
		if p == 0 && n > 1 {
			return 1
		}
		return 0
	}
	for _, q := range topo.Out(p) {
		if q != p {
			return q
		}
	}
	return p
}

// claimsProcess reports whether the clause kind claims a process slot
// (as opposed to configuring the message-level fault layer).
func (c *faultClause) claimsProcess() bool {
	switch c.kind {
	case "crash", "byz", "script", "recover":
		return true
	}
	return false
}

// resolvePolicies maps the recovery= and inflight= parameters onto the
// sim policies.
func resolvePolicies(v Values) (sim.RecoveryPolicy, sim.InflightPolicy, error) {
	recovery, inflight := sim.RecoverDurable, sim.InflightDrop
	switch s := v.String("recovery"); s {
	case "durable":
	case "amnesia":
		recovery = sim.RecoverAmnesia
	default:
		return 0, 0, fmt.Errorf("workload: recovery=%q: want durable or amnesia", s)
	}
	switch s := v.String("inflight"); s {
	case "drop":
	case "hold":
		inflight = sim.InflightHold
	default:
		return 0, 0, fmt.Errorf("workload: inflight=%q: want drop or hold", s)
	}
	return recovery, inflight, nil
}

// NetFaulty reports whether the resolved fault spec engages the
// message-level fault layer (drop, dup, spike, or partition clauses).
// Domain verdicts whose correctness arguments assume a reliable network
// use it to step aside — the admissibility verdict still stands on such
// runs. A spec that does not parse reports false; job construction
// surfaces the parse error.
func NetFaulty(v Values) bool {
	clauses, err := parseFaults(v.String("faults"))
	if err != nil {
		return false
	}
	for _, c := range clauses {
		if !c.claimsProcess() {
			return true
		}
	}
	return false
}

// insertInterval inserts iv into the schedule keeping it sorted by From.
// Overlaps are left for sim.Run's schedule validation to reject.
func insertInterval(down []sim.Interval, iv sim.Interval) []sim.Interval {
	i := len(down)
	for i > 0 && iv.From.Less(down[i-1].From) {
		i--
	}
	down = append(down, sim.Interval{})
	copy(down[i+1:], down[i:])
	down[i] = iv
	return down
}

// ResolveFaults builds the fault map and the message-level fault layer
// for the resolved values: process-claiming clauses claim IDs n-1
// downward (or their explicit pI targets), Byzantine slots are filled by
// byz, scripted slots inject one junk payload routed by topo, and
// drop/dup/spike/partition clauses assemble a sim.NetFaults. A nil map
// and nil NetFaults mean no faults. Callers validate the returned map's
// size against their own resilience bound.
func ResolveFaults(v Values, n int, topo *sim.Links, byz ByzFactory) (map[sim.ProcessID]sim.Fault, *sim.NetFaults, error) {
	spec := v.String("faults")
	clauses, err := parseFaults(spec)
	if err != nil {
		return nil, nil, err
	}
	// The policies are validated whatever the spec, so a mistyped value
	// is an error even where no recover/ clause reads it.
	recovery, inflight, err := resolvePolicies(v)
	if err != nil || clauses == nil {
		return nil, nil, err
	}

	var net *sim.NetFaults
	ensureNet := func() *sim.NetFaults {
		if net == nil {
			net = &sim.NetFaults{}
		}
		return net
	}

	// Pass 1: assemble the network layer, register explicit process
	// claims, and count claimed slots. Repeated recover clauses with the
	// same explicit target merge (one process, several down intervals);
	// any other double claim is a spec error, named by clause position.
	type claim struct {
		pos  int
		kind string
	}
	explicit := make(map[sim.ProcessID]claim)
	total := 0
	for _, c := range clauses {
		switch c.kind {
		case "drop":
			if net != nil && net.Drop > 0 {
				return nil, nil, clauseErr(c.pos, c.text, "duplicate drop clause")
			}
			ensureNet().Drop = c.prob
		case "dup":
			if net != nil && net.Dup > 0 {
				return nil, nil, clauseErr(c.pos, c.text, "duplicate dup clause")
			}
			ensureNet().Dup = c.prob
		case "spike":
			if net != nil && net.Spike.Prob > 0 {
				return nil, nil, clauseErr(c.pos, c.text, "duplicate spike clause")
			}
			ensureNet().Spike = sim.SpikeRule{Prob: c.prob, Extra: c.extra}
		case "partition":
			pt := sim.Partition{From: c.from, Until: c.until}
			if c.half {
				for p := 0; p < (n+1)/2; p++ {
					pt.A = append(pt.A, sim.ProcessID(p))
				}
			} else {
				if int(c.target) >= n {
					return nil, nil, clauseErr(c.pos, c.text, "target p%d outside [0, %d)", c.target, n)
				}
				pt.A = []sim.ProcessID{c.target}
			}
			ensureNet().Partitions = append(ensureNet().Partitions, pt)
		default:
			if c.target >= 0 {
				if int(c.target) >= n {
					return nil, nil, clauseErr(c.pos, c.text, "target p%d outside [0, %d)", c.target, n)
				}
				if prev, ok := explicit[c.target]; ok {
					if !(prev.kind == "recover" && c.kind == "recover") {
						return nil, nil, clauseErr(c.pos, c.text, "process %d already claimed by clause %d", c.target, prev.pos)
					}
					continue // merged recover schedule: counted once
				}
				explicit[c.target] = claim{pos: c.pos, kind: c.kind}
			}
			total += c.k
		}
	}
	if total == 0 {
		return nil, net, nil
	}
	if total > n {
		return nil, nil, fmt.Errorf("workload: fault spec %q claims %d processes, system has %d", spec, total, n)
	}

	// Pass 2: apply process clauses in order. Count-form clauses take the
	// highest unclaimed IDs downward; explicit targets take their own.
	faults := make(map[sim.ProcessID]sim.Fault, total)
	next := n - 1
	takeNext := func() sim.ProcessID {
		for {
			id := sim.ProcessID(next)
			next--
			if _, ok := explicit[id]; !ok {
				return id // total <= n guarantees a free slot exists
			}
		}
	}
	bi := 0 // running adversary index across byz clauses
	for _, c := range clauses {
		if !c.claimsProcess() {
			continue
		}
		for j := 0; j < c.k; j++ {
			var id sim.ProcessID
			if c.target >= 0 {
				id = c.target
			} else {
				id = takeNext()
			}
			switch c.kind {
			case "crash":
				faults[id] = sim.Crash(c.step)
			case "byz":
				if byz == nil {
					return nil, nil, fmt.Errorf("workload: %s declares no Byzantine adversary family (fault spec %q)", v.source, spec)
				}
				faults[id] = sim.ByzantineFault(byz(bi, id, c.budget))
				bi++
			case "script":
				faults[id] = sim.Fault{CrashAfter: sim.NeverCrash, Script: []sim.ScriptedSend{
					{At: c.at, To: scriptTarget(id, n, topo), Payload: fmt.Sprintf("noise/%d", id)},
				}}
			case "recover":
				f, ok := faults[id]
				if !ok {
					f = sim.Fault{CrashAfter: sim.NeverCrash, Recovery: recovery, Inflight: inflight}
				}
				f.Down = insertInterval(f.Down, sim.Interval{From: c.from, Until: c.until})
				faults[id] = f
			}
		}
	}
	return faults, net, nil
}
