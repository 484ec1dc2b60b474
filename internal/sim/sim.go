package sim

// Config describes one simulation run.
type Config struct {
	// N is the number of processes.
	N int
	// Spawn creates the correct-process state machine for process p.
	// Faulty processes with a Byzantine handler ignore it.
	Spawn func(p ProcessID) Process
	// Faults maps process IDs to their failure behavior. Processes not
	// present are correct.
	Faults map[ProcessID]Fault
	// Net, when non-nil, enables the message-level fault layer: seeded
	// deterministic drop/duplicate/delay-spike rules and transient link
	// partitions, validated at Run setup and applied at send time in the
	// deterministic delivery order. nil is a perfect network — and draws
	// nothing from the RNG, so legacy traces are untouched byte for byte.
	Net *NetFaults
	// Delays assigns end-to-end delays; required.
	Delays DelayPolicy
	// Topology is the communication graph; nil means fully connected.
	// Sparse systems build one with NewLinks or a generator (Ring, Torus,
	// RandomRegular, ScaleFree, Islands, or ParseTopology), and the engine
	// broadcasts along its neighbor lists. It must span exactly N
	// processes. Self-delivery is always available regardless of
	// topology, and wake-up delivery is unaffected by it.
	Topology *Links
	// Seed seeds the deterministic random source used by delay policies.
	Seed int64
	// MaxEvents bounds the number of receive events; 0 means the default
	// of 200000. Exceeding the bound stops the run (Result.Truncated).
	// It counts receive events, not the messages their steps send, so a
	// capped run still holds every message sent and not yet delivered:
	// its in-flight memory grows with the fan-out of its steps.
	MaxEvents int
	// Until, when non-nil, is evaluated after every computing step; the run
	// stops once it returns true. It receives the process state machines
	// (indexable by ProcessID) for inspection.
	Until func(procs []Process) bool
	// Monitor, when non-nil, observes the live trace after every recorded
	// receive event (check-as-you-simulate). A non-nil return stops the
	// run immediately; the error lands in Result.MonitorErr. The argument
	// is the run's own growing trace — monitors must not mutate it, and
	// anything retained from it aliases the returned Result.Trace.
	Monitor func(t *Trace) error
	// Sink, when non-nil, observes each finalized Event and Message and
	// selects the trace-retention policy (see RetainAll, RetainWindow,
	// RetainNone). nil keeps the complete trace — identical to the
	// pre-sink engine. Bounded retention trades Trace completeness for
	// memory: see Trace.Complete and the TotalEvents/StreamHash
	// accessors, which work in every mode.
	Sink Sink
}

// Result of a run.
type Result struct {
	Trace *Trace
	// Procs are the final process state machines, indexable by ProcessID.
	Procs []Process
	// Truncated is true when the run stopped due to MaxEvents rather than
	// quiescence, the Until predicate or the Monitor.
	Truncated bool
	// MonitorErr is the error with which Config.Monitor stopped the run,
	// nil when no monitor was set or it never objected.
	MonitorErr error
}

// defaultMaxEvents bounds runaway executions of non-terminating algorithms
// such as Algorithm 1, whose clocks progress forever (Theorem 1).
const defaultMaxEvents = 200000

// Run executes the configured simulation to quiescence or a stop condition
// and returns the recorded trace. It returns an error only for invalid
// configurations; algorithm panics propagate.
//
// Run is a convenience wrapper over a throwaway Engine; callers executing
// many simulations (fleet sweeps, internal/runner workers) should hold an
// Engine and call its Run method to amortize the scheduler's allocations.
func Run(cfg Config) (*Result, error) {
	return new(Engine).Run(cfg)
}

// Wakeup is the payload of the external message that triggers each
// process's first computing step.
type Wakeup struct{}
