package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/rat"
)

// Engine is a reusable simulation executor. A zero-value Engine is ready to
// use; Run may be called any number of times, and each call produces a
// result bit-identical to a fresh sim.Run of the same Config (the
// hermeticity property pinned by TestEngineReuseHermetic).
//
// The point of an Engine over the one-shot Run is fan-out cost: the fleet
// runner (internal/runner) executes thousands of short simulations per
// worker, and the delivery queue, per-process scratch arrays, RNG, the
// step environment (and its send buffer), the per-process event-index
// rows, and — under bounded retention — the in-flight message store are
// all reused across runs instead of reallocated. Everything that escapes
// into the Result — the Trace and the process state machines — is freshly
// allocated per run, so results from consecutive runs never alias:
// full-retention event/message storage is freshly sized to the engine's
// high-water marks, and the pooled index rows are compacted into a fresh
// flat copy before the Result is returned.
//
// An Engine is not safe for concurrent use; give each goroutine its own.
type Engine struct {
	// Pooled across runs.
	rng        *rand.Rand
	heapQ      heapQueue
	wheelQ     *bucketQueue
	queue      eventQueue // points at heapQ or wheelQ by system size
	crashAfter []int
	stepCount  []int // computing steps executed per process
	eventCount []int // receive events recorded per process
	wakeTime   []Time
	down       [][]Interval  // per-process down schedule (aliases Fault.Down)
	hold       []bool        // InflightHold: defer deliveries past down intervals
	amnesia    []bool        // RecoverAmnesia: respawn on each recovery wake-up
	out        []pendingSend // Env send buffer, recycled between steps
	env        Env           // the one step environment, reused every step
	posRows    [][]int32     // pooled eventPos rows; compacted out per run
	lastEvents int           // high-water marks sizing the next full-retention run
	lastMsgs   int
	pend       []Message // bounded retention: in-flight message store
	pendDone   []bool    // pend[i] delivered (eligible for compaction)
	pendBase   MsgID     // ID of pend[0]
	pendStart  int       // first undelivered index in pend

	// Per-run state; reset at the top of Run.
	cfg        Config
	links      *Links // cfg.Topology when it is a *Links, else nil
	ret        Retention
	cb         Sink // cfg.Sink when it observes (custom sink), else nil
	trace      *Trace
	procs      []Process
	seq        int64
	nextMsg    MsgID
	monitorErr error
	net        *NetFaults // cfg.Net; nil draws nothing from the RNG
	partSides  [][]int8   // per-partition side vectors, built at Run setup
}

// NewEngine returns an empty Engine. Equivalent to new(Engine); it exists
// for discoverability next to Run.
func NewEngine() *Engine { return new(Engine) }

// Run executes the configured simulation to quiescence or a stop condition
// and returns the recorded trace. It returns an error only for invalid
// configurations; algorithm panics propagate. The Engine's pooled storage
// is recycled, but the returned Result shares no state with the Engine or
// with earlier results.
func (e *Engine) Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: N = %d, need at least 1", cfg.N)
	}
	if cfg.Spawn == nil {
		return nil, errors.New("sim: Spawn is required")
	}
	if cfg.Delays == nil {
		return nil, errors.New("sim: Delays is required")
	}
	if cfg.StartTimes != nil && len(cfg.StartTimes) != cfg.N {
		return nil, fmt.Errorf("sim: StartTimes has length %d, want %d", len(cfg.StartTimes), cfg.N)
	}
	ret := Retention{Mode: RetainFullMode}
	if cfg.Sink != nil {
		ret = cfg.Sink.Retention()
		switch ret.Mode {
		case RetainFullMode:
		case RetainWindowMode:
			if ret.Window < 1 {
				return nil, fmt.Errorf("sim: window retention needs Window >= 1, got %d", ret.Window)
			}
		case RetainNoneMode:
			if cfg.Monitor != nil {
				return nil, errors.New("sim: Monitor requires retained events (full or window retention, not none)")
			}
		default:
			return nil, fmt.Errorf("sim: unknown retention mode %v", ret.Mode)
		}
	}
	var links *Links
	if l, ok := cfg.Topology.(*Links); ok && l != nil {
		if l.N() != cfg.N {
			return nil, fmt.Errorf("sim: topology is over %d processes, config has N = %d", l.N(), cfg.N)
		}
		links = l
	}
	for p, f := range cfg.Faults {
		if p < 0 || int(p) >= cfg.N {
			return nil, fmt.Errorf("sim: fault for invalid process %d", p)
		}
		if f.CrashAfter < NeverCrash {
			return nil, fmt.Errorf("sim: fault for process %d has CrashAfter = %d", p, f.CrashAfter)
		}
		// Down schedules are validated like scripted sends: a malformed
		// schedule is a configuration error, never silent misbehavior.
		if len(f.Down) > 0 && f.CrashAfter >= 0 {
			return nil, fmt.Errorf("sim: fault for process %d sets both CrashAfter and a Down schedule", p)
		}
		if f.Recovery != RecoverDurable && f.Recovery != RecoverAmnesia {
			return nil, fmt.Errorf("sim: fault for process %d has unknown recovery policy %d", p, f.Recovery)
		}
		if f.Inflight != InflightDrop && f.Inflight != InflightHold {
			return nil, fmt.Errorf("sim: fault for process %d has unknown in-flight policy %d", p, f.Inflight)
		}
		if f.Recovery == RecoverAmnesia && f.Byzantine != nil {
			return nil, fmt.Errorf("sim: fault for process %d: amnesia recovery of a Byzantine process (Spawn cannot restore its handler)", p)
		}
		for i, iv := range f.Down {
			if iv.From.Sign() < 0 {
				return nil, fmt.Errorf("sim: down interval %d of process %d starts at negative time %v", i, p, iv.From)
			}
			if !iv.From.Less(iv.Until) {
				return nil, fmt.Errorf("sim: down interval %d of process %d is empty: [%v, %v)", i, p, iv.From, iv.Until)
			}
			if i > 0 && iv.From.Less(f.Down[i-1].Until) {
				return nil, fmt.Errorf("sim: down intervals %d and %d of process %d overlap or are unsorted", i-1, i, p)
			}
		}
		// Scripted sends go through the same wiring rules as Env.Send: a
		// Byzantine process controls its behavior, not the network — it
		// cannot message across links that do not exist (see the adversary
		// model note in fault.go). Self-sends are always legal.
		for _, s := range f.Script {
			if s.To < 0 || int(s.To) >= cfg.N {
				return nil, fmt.Errorf("sim: scripted send from %d to invalid process %d", p, s.To)
			}
			if s.At.Sign() < 0 {
				return nil, fmt.Errorf("sim: scripted send from %d at negative time %v", p, s.At)
			}
			if s.To != p && cfg.Topology != nil && !cfg.Topology.Linked(p, s.To) {
				return nil, fmt.Errorf("sim: scripted send from %d to %d crosses a non-existent link", p, s.To)
			}
		}
	}
	// The message-level fault layer is validated up front, like scripted
	// sends: probabilities in range, spike penalties non-negative, and
	// every partition a real cut of the configured topology within the run
	// horizon.
	var partSides [][]int8
	if nf := cfg.Net; nf != nil {
		if nf.Drop < 0 || nf.Drop > 1 {
			return nil, fmt.Errorf("sim: drop probability %v outside [0, 1]", nf.Drop)
		}
		if nf.Dup < 0 || nf.Dup > 1 {
			return nil, fmt.Errorf("sim: duplicate probability %v outside [0, 1]", nf.Dup)
		}
		if nf.Spike.Prob < 0 || nf.Spike.Prob > 1 {
			return nil, fmt.Errorf("sim: spike probability %v outside [0, 1]", nf.Spike.Prob)
		}
		if nf.Spike.Prob > 0 && nf.Spike.Extra.Sign() < 0 {
			return nil, fmt.Errorf("sim: spike adds negative delay %v", nf.Spike.Extra)
		}
		partSides = make([][]int8, len(nf.Partitions))
		for i, pt := range nf.Partitions {
			if pt.From.Sign() < 0 {
				return nil, fmt.Errorf("sim: partition %d starts at negative time %v", i, pt.From)
			}
			if !pt.From.Less(pt.Until) {
				return nil, fmt.Errorf("sim: partition %d interval is empty: [%v, %v)", i, pt.From, pt.Until)
			}
			if cfg.MaxTime.Sign() > 0 && pt.Until.Greater(cfg.MaxTime) {
				return nil, fmt.Errorf("sim: partition %d ends at %v, beyond the run horizon %v", i, pt.Until, cfg.MaxTime)
			}
			sides, err := partitionSides(pt, cfg.N)
			if err != nil {
				return nil, fmt.Errorf("%s (partition %d)", err, i)
			}
			if !partitionCutsLink(sides, cfg.Topology, links, cfg.N) {
				return nil, fmt.Errorf("sim: partition %d cuts no link of the topology", i)
			}
			partSides[i] = sides
		}
	}
	maxEvents := cfg.MaxEvents
	if maxEvents <= 0 {
		maxEvents = defaultMaxEvents
	}

	delays, err := compileDelays(cfg.Delays)
	if err != nil {
		return nil, err
	}
	cfg.Delays = delays
	e.ret = ret
	e.reset(cfg)
	e.links = links
	e.net = cfg.Net
	e.partSides = partSides
	if links != nil && cap(e.out) < links.MaxOutDegree()+1 {
		// Pre-size the pooled send buffer to the worst-case broadcast
		// fan-out (+1 for the woven-in self-delivery) so steps never grow
		// it incrementally.
		e.out = make([]pendingSend, 0, links.MaxOutDegree()+1)
	}

	for p := ProcessID(0); int(p) < cfg.N; p++ {
		handler := cfg.Spawn(p)
		if f, ok := cfg.Faults[p]; ok {
			e.trace.Faulty[p] = true
			e.crashAfter[p] = f.CrashAfter
			e.down[p] = f.Down
			e.hold[p] = len(f.Down) > 0 && f.Inflight == InflightHold
			e.amnesia[p] = len(f.Down) > 0 && f.Recovery == RecoverAmnesia
			if f.Byzantine != nil {
				handler = f.Byzantine
			}
		}
		if handler == nil {
			return nil, fmt.Errorf("sim: nil handler for process %d", p)
		}
		e.procs[p] = handler
	}

	// Schedule wake-ups first so that, at equal times, the deterministic
	// (time, seq) order delivers each process's wake-up before any peer
	// message (Section 2's assumption on the very first step). A wake-up
	// time covered by a down interval is deferred to that interval's end —
	// a process's wake-up is never lost, so every recoverable process
	// eventually initializes (and amnesia machines are never respawned
	// before their first spawn took a step).
	for p := ProcessID(0); int(p) < cfg.N; p++ {
		at := rat.Zero
		if cfg.StartTimes != nil {
			at = cfg.StartTimes[p]
		}
		for _, iv := range e.down[p] {
			// Forward scan: adjacent intervals cascade the deferral.
			if iv.Contains(at) {
				at = iv.Until
			}
		}
		e.wakeTime[p] = at
		id := e.recordMessage(Message{
			From: External, To: p, SendStep: SendStepExternal,
			SendTime: at, RecvTime: at, Payload: Wakeup{},
		})
		e.queue.push(delivery{at: at, key: deliveryKey(at), seq: e.nextSeq(), msg: id})
	}
	// Recovery wake-ups for amnesia processes: one external wake-up at the
	// end of each down interval, so the respawned machine re-executes its
	// initialization. Scheduled at setup, their queue seq precedes every
	// runtime send at the same time — the respawn happens before any held
	// delivery at the recovery instant is processed.
	for p := ProcessID(0); int(p) < cfg.N; p++ {
		if !e.amnesia[p] {
			continue
		}
		for _, iv := range e.down[p] {
			if !iv.Until.Greater(e.wakeTime[p]) {
				continue // the initial wake-up already covers this recovery
			}
			id := e.recordMessage(Message{
				From: External, To: p, SendStep: SendStepExternal,
				SendTime: iv.Until, RecvTime: iv.Until, Payload: Wakeup{},
			})
			e.queue.push(delivery{at: iv.Until, key: deliveryKey(iv.Until), seq: e.nextSeq(), msg: id})
		}
	}
	// Scripted Byzantine sends, in process order for determinism (map
	// iteration order is randomized).
	for p := ProcessID(0); int(p) < cfg.N; p++ {
		f, ok := cfg.Faults[p]
		if !ok {
			continue
		}
		for _, s := range f.Script {
			e.sendMessage(p, SendStepScripted, s.At, s.To, s.Payload)
		}
	}

	truncated := e.loop(maxEvents)
	e.finishTrace()
	res := &Result{Trace: e.trace, Procs: e.procs, Truncated: truncated, MonitorErr: e.monitorErr}
	// Drop the escaping references so pooled state never aliases a result.
	e.trace, e.procs, e.cfg, e.links, e.cb, e.monitorErr = nil, nil, Config{}, nil, nil, nil
	e.net, e.partSides = nil, nil
	for p := range e.down {
		e.down[p] = nil // Fault.Down slices are config-owned; do not pin them
	}
	e.env = Env{}
	return res, nil
}

// reset prepares the pooled storage for a new run: the queue and scratch
// arrays are cleared and resized to cfg.N, the RNG is reseeded (producing
// the same draw sequence as a fresh rand.New(rand.NewSource(seed))), and
// per-run outputs are freshly allocated. e.ret must be set before reset.
func (e *Engine) reset(cfg Config) {
	e.cfg = cfg
	e.seq = 0
	e.nextMsg = 0
	e.monitorErr = nil
	e.cb = nil
	if cfg.Sink != nil {
		if _, builtin := cfg.Sink.(retentionSink); !builtin {
			e.cb = cfg.Sink
		}
	}
	if cfg.N >= autoBucketN {
		if e.wheelQ == nil {
			e.wheelQ = newBucketQueue()
		}
		e.wheelQ.reset(cfg.N)
		e.queue = e.wheelQ
	} else {
		e.heapQ = e.heapQ[:0]
		e.queue = &e.heapQ
	}
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		e.rng.Seed(cfg.Seed)
	}
	e.crashAfter = resizeInts(e.crashAfter, cfg.N)
	e.stepCount = resizeInts(e.stepCount, cfg.N)
	e.eventCount = resizeInts(e.eventCount, cfg.N)
	e.wakeTime = resizeTimes(e.wakeTime, cfg.N)
	e.down = resizeDowns(e.down, cfg.N)
	e.hold = resizeBools(e.hold, cfg.N)
	e.amnesia = resizeBools(e.amnesia, cfg.N)
	for p := 0; p < cfg.N; p++ {
		e.crashAfter[p] = NeverCrash
	}
	e.pendBase = 0
	e.pendStart = 0

	// Escaping per-run state: always fresh. Full retention pre-sizes the
	// event and message stores to the engine's high-water marks so steady
	// fleet traffic allocates each exactly once instead of growing them
	// (append's growth factor costs ~5x the final size in cumulative
	// allocation); window retention sizes to the window; none retains
	// nothing.
	e.trace = &Trace{N: cfg.N, Faulty: make([]bool, cfg.N), mode: e.ret.Mode}
	e.procs = make([]Process, cfg.N)
	switch e.ret.Mode {
	case RetainFullMode:
		e.trace.Events = make([]Event, 0, e.lastEvents)
		e.trace.Msgs = make([]Message, 0, e.lastMsgs)
		if cap(e.posRows) < cfg.N {
			e.posRows = make([][]int32, cfg.N)
		}
		e.posRows = e.posRows[:cfg.N]
		for p := range e.posRows {
			e.posRows[p] = e.posRows[p][:0]
		}
		// Live view during the run (monitors may call EventAt); replaced
		// by a compacted fresh copy before the Result escapes.
		e.trace.eventPos = e.posRows
	case RetainWindowMode:
		e.trace.Events = make([]Event, 0, 2*e.ret.Window)
		e.trace.Msgs = make([]Message, 0, 2*e.ret.Window)
		e.trace.digest.init()
	case RetainNoneMode:
		e.trace.digest.init()
	}
}

// finishTrace seals the per-run trace before it escapes: full retention
// compacts the pooled index rows into one fresh flat array (two
// allocations) and refreshes the high-water marks; bounded retention
// clears the pooled in-flight store so it pins no payloads between runs.
func (e *Engine) finishTrace() {
	switch e.ret.Mode {
	case RetainFullMode:
		t := e.trace
		flat := make([]int32, len(t.Events))
		spine := make([][]int32, t.N)
		off := 0
		for p := range spine {
			n := copy(flat[off:], e.posRows[p])
			spine[p] = flat[off : off+n : off+n]
			off += n
		}
		t.eventPos = spine
		if len(t.Events) > e.lastEvents {
			e.lastEvents = len(t.Events)
		}
		if len(t.Msgs) > e.lastMsgs {
			e.lastMsgs = len(t.Msgs)
		}
	default:
		clear(e.pend)
		e.pend = e.pend[:0]
		e.pendDone = e.pendDone[:0]
	}
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeTimes(s []Time, n int) []Time {
	if cap(s) < n {
		return make([]Time, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = rat.Zero
	}
	return s
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func resizeDowns(s [][]Interval, n int) [][]Interval {
	if cap(s) < n {
		return make([][]Interval, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func (e *Engine) nextSeq() int64 {
	e.seq++
	return e.seq
}

// recordMessage finalizes one message (its receive time already
// assigned), stores it per the retention mode, and returns its ID. Under
// bounded retention the message lives in the pooled in-flight store until
// delivered, and the stream digest folds it immediately — in ID order,
// matching the on-demand digest of a complete trace.
func (e *Engine) recordMessage(m Message) MsgID {
	m.ID = e.nextMsg
	e.nextMsg++
	switch e.ret.Mode {
	case RetainFullMode:
		e.trace.Msgs = append(e.trace.Msgs, m)
	default:
		e.trace.totalMsgs++
		e.trace.digest.foldMessage(&m)
		// Dropped messages are never delivered, so they enter the pooled
		// in-flight store already done — eligible for compaction, but
		// preserving the dense pendBase+i == ID indexing.
		e.pend = append(e.pend, m)
		e.pendDone = append(e.pendDone, m.Dropped)
	}
	if e.cb != nil {
		// Copy for the interface call: handing &m itself to an opaque
		// callee would make every message heap-escape even with no sink.
		cm := m
		e.cb.Message(&cm)
	}
	return m.ID
}

// sendMessage runs the network pipeline for one send: the message-level
// fault layer first (partitions and the drop rule lose the message; the
// dup rule delivers it twice), then deliver assigns the delay and
// schedules the delivery. All fault draws come from the run's single RNG
// in the deterministic send order, and a nil Config.Net draws nothing —
// legacy runs are byte-identical. Self-sends bypass the network layer
// entirely (local delivery is not the network's to lose), and wake-ups
// never pass through sendMessage at all.
func (e *Engine) sendMessage(from ProcessID, sendStep int, sendTime Time, to ProcessID, payload any) {
	m := Message{
		From: from, To: to, SendStep: sendStep,
		SendTime: sendTime, Payload: payload,
	}
	if e.net != nil && from != to {
		for i := range e.net.Partitions {
			pt := &e.net.Partitions[i]
			sides := e.partSides[i]
			if sides[from] != 0 && sides[to] != 0 && sides[from] != sides[to] &&
				!sendTime.Less(pt.From) && sendTime.Less(pt.Until) {
				e.dropMessage(m)
				return
			}
		}
		if e.net.Drop > 0 && e.rng.Float64() < e.net.Drop {
			e.dropMessage(m)
			return
		}
		e.deliver(m)
		// The duplicate draws its own delay and spike; it is itself never
		// dropped or re-duplicated.
		if e.net.Dup > 0 && e.rng.Float64() < e.net.Dup {
			e.deliver(m)
		}
		return
	}
	e.deliver(m)
}

// dropMessage records a message the network lost: RecvTime == SendTime,
// Dropped set, never enqueued — so no receive event ever has it as a
// trigger and the causality graph never sees it, while the trace (and
// both digests) still commit to the loss.
func (e *Engine) dropMessage(m Message) {
	m.RecvTime = m.SendTime
	m.Dropped = true
	e.recordMessage(m)
}

// deliver assigns a delay and schedules the delivery. Delivery never
// precedes the recipient's wake-up (receive times are clamped to the wake
// time; the wake-up's earlier queue seq breaks the tie), and under
// InflightHold a delivery falling in a down interval of the recipient is
// deferred to that interval's end.
func (e *Engine) deliver(m Message) {
	d := e.cfg.Delays.Delay(m, e.rng)
	if d.Sign() < 0 {
		panic(fmt.Sprintf("sim: delay policy returned negative delay %v", d))
	}
	recv := m.SendTime.Add(d)
	if e.net != nil && m.From != m.To && e.net.Spike.Prob > 0 && e.rng.Float64() < e.net.Spike.Prob {
		recv = recv.Add(e.net.Spike.Extra)
	}
	if recv.Less(e.wakeTime[m.To]) {
		recv = e.wakeTime[m.To]
	}
	if e.hold[m.To] {
		for _, iv := range e.down[m.To] {
			// Forward scan over the sorted schedule: adjacent intervals
			// cascade the deferral.
			if iv.Contains(recv) {
				recv = iv.Until
			}
		}
	}
	m.RecvTime = recv
	id := e.recordMessage(m)
	e.queue.push(delivery{at: recv, key: deliveryKey(recv), seq: e.nextSeq(), msg: id})
}

// partitionCutsLink reports whether a partition's side vector severs at
// least one link of the topology. For predicate topologies the pair scan
// is only affordable at small N; larger systems skip the check (the
// partition is accepted as specified).
func partitionCutsLink(sides []int8, topo Topology, links *Links, n int) bool {
	if topo == nil {
		// Full mesh: two non-empty sides always cut links.
		return true
	}
	if links != nil {
		for p := 0; p < n; p++ {
			if sides[p] == 0 {
				continue
			}
			for _, q := range links.Out(ProcessID(p)) {
				if sides[q] != 0 && sides[q] != sides[p] {
					return true
				}
			}
		}
		return false
	}
	if n > 1024 {
		return true
	}
	for p := 0; p < n; p++ {
		if sides[p] == 0 {
			continue
		}
		for q := 0; q < n; q++ {
			if q == p || sides[q] == 0 || sides[q] == sides[p] {
				continue
			}
			if topo.Linked(ProcessID(p), ProcessID(q)) {
				return true
			}
		}
	}
	return false
}

// takeDelivery resolves a popped delivery to its message. Under bounded
// retention the message is fetched from the in-flight store, marked
// delivered, and the store's delivered prefix is compacted away
// (amortized O(1)) so memory tracks the in-flight population, not the
// run length.
func (e *Engine) takeDelivery(d delivery) Message {
	if e.ret.Mode == RetainFullMode {
		return e.trace.Msgs[d.msg]
	}
	i := int(d.msg - e.pendBase)
	m := e.pend[i]
	e.pendDone[i] = true
	s := e.pendStart
	for s < len(e.pend) && e.pendDone[s] {
		s++
	}
	e.pendStart = s
	if s > 1024 && s > len(e.pend)/2 {
		old := e.pend
		n := copy(old, old[s:])
		clear(old[n:]) // drop payload refs from the vacated suffix
		e.pend = old[:n]
		copy(e.pendDone, e.pendDone[s:])
		e.pendDone = e.pendDone[:n]
		e.pendBase += MsgID(s)
		e.pendStart = 0
	}
	return m
}

// recordEvent appends one finalized receive event per the retention mode.
// m is the event's trigger message (already resolved by takeDelivery).
func (e *Engine) recordEvent(ev Event, m Message) {
	t := e.trace
	switch e.ret.Mode {
	case RetainFullMode:
		pos := len(t.Events)
		t.Events = append(t.Events, ev)
		// ev.Index == len(posRows[p]) by construction, so this appends the
		// dense per-process index row.
		e.posRows[ev.Proc] = append(e.posRows[ev.Proc], int32(pos))
	case RetainWindowMode:
		t.totalEvents++
		t.digest.foldEvent(&ev)
		t.Events = append(t.Events, ev)
		t.Msgs = append(t.Msgs, m) // parallel trigger store
		if k := e.ret.Window; len(t.Events) >= 2*k {
			// Slide: keep the most recent k, amortized O(1) per event.
			drop := len(t.Events) - k
			n := copy(t.Events, t.Events[drop:])
			clear(t.Events[n:])
			t.Events = t.Events[:n]
			n = copy(t.Msgs, t.Msgs[drop:])
			clear(t.Msgs[n:])
			t.Msgs = t.Msgs[:n]
			t.firstEvent += drop
		}
	case RetainNoneMode:
		t.totalEvents++
		t.digest.foldEvent(&ev)
	}
	if e.cb != nil {
		// Copy for the interface call, as in recordMessage.
		cev := ev
		e.cb.Event(&cev)
	}
}

func (e *Engine) loop(maxEvents int) (truncated bool) {
	for e.queue.len() > 0 {
		if e.trace.TotalEvents() >= maxEvents {
			return true
		}
		d := e.queue.pop()
		m := e.takeDelivery(d)
		if e.cfg.MaxTime.Sign() > 0 && m.RecvTime.Greater(e.cfg.MaxTime) {
			return true
		}
		p := m.To

		// A process is not taking steps while permanently crashed or inside
		// a down interval; the reception still occurs (Processed == false) —
		// the network controls reception, the receiver controls processing.
		crashed := e.crashAfter[p] != NeverCrash && e.stepCount[p] >= e.crashAfter[p]
		if !crashed && len(e.down[p]) > 0 {
			crashed = downAt(e.down[p], m.RecvTime)
		}
		if !crashed && e.amnesia[p] && m.IsWakeup() && e.eventCount[p] > 0 {
			// Recovery wake-up of an amnesia process: respawn from scratch
			// and reset the step counter so the fresh machine sees step
			// indices from zero. Event indices stay monotone — SendStep
			// records event indices, so causality is unaffected.
			e.procs[p] = e.cfg.Spawn(p)
			e.stepCount[p] = 0
		}
		ev := Event{
			Proc:    p,
			Index:   e.eventCount[p],
			Time:    m.RecvTime,
			Trigger: m.ID,
		}
		e.eventCount[p]++

		if !crashed {
			// The step environment is pooled: one Env lives in the Engine
			// and is re-initialized per step, so the interface call's
			// escape of &e.env costs nothing on the hot path.
			e.env = Env{
				self:      p,
				n:         e.cfg.N,
				stepIndex: e.stepCount[p],
				topo:      e.cfg.Topology,
				links:     e.links,
				out:       e.out[:0],
			}
			e.procs[p].Step(&e.env, m)
			e.stepCount[p]++
			ev.Processed = true
			ev.Note = e.env.note
			for _, out := range e.env.out {
				e.sendMessage(p, ev.Index, m.RecvTime, out.to, out.payload)
			}
			// Keep the (possibly grown) send buffer, cleared of payload
			// references so pooled storage does not pin process data.
			e.out = e.env.out[:0]
			clearSends(e.env.out)
		}
		e.recordEvent(ev, m)

		if e.cfg.Monitor != nil {
			if err := e.cfg.Monitor(e.trace); err != nil {
				e.monitorErr = err
				return false
			}
		}
		if ev.Processed && e.cfg.Until != nil && e.cfg.Until(e.procs) {
			return false
		}
	}
	return false
}

// downAt reports whether t falls inside one of the sorted intervals.
// Schedules are tiny (a handful of intervals), so a linear scan wins.
func downAt(down []Interval, t Time) bool {
	for _, iv := range down {
		if t.Less(iv.From) {
			return false
		}
		if t.Less(iv.Until) {
			return true
		}
	}
	return false
}

func clearSends(s []pendingSend) {
	for i := range s {
		s[i] = pendingSend{}
	}
}
