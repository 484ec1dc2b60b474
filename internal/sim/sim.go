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
	// Use a *Links (see the generators Ring, Torus, RandomRegular,
	// ScaleFree, Islands, or ParseTopology) for sparse systems — the
	// engine then broadcasts along precomputed neighbor lists instead of
	// scanning all N processes per send. Self-delivery is always available
	// regardless of topology, and wake-up delivery is unaffected by it.
	Topology Topology
	// Seed seeds the deterministic random source used by delay policies.
	Seed int64
	// MaxEvents bounds the number of receive events; 0 means the default
	// of 200000. Exceeding the bound stops the run (Result.Truncated).
	MaxEvents int
	// MaxTime, when positive, stops the run once simulated time exceeds it.
	MaxTime Time
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
	// StartTimes optionally staggers wake-up times; nil means all zero.
	StartTimes []Time
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
	// Truncated is true when the run stopped due to MaxEvents or MaxTime
	// rather than quiescence or the Until predicate.
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

// autoBucketN is the system size at which the Engine switches from the
// binary heap to the bucketed calendar queue. Each kind wins on one
// benchmark workload: the calendar at every N costs watch-dense (N=64)
// about 20% more peak RSS, because its wake-ups at t=0 give a width-1
// window that lands ~10^5 deliveries in one bucket, and the heap at
// every N costs ring (N=5·10^4) 5–16% more wall time (DESIGN.md
// decision 8). The choice never affects results: both realize the same
// exact (time, seq) delivery order.
const autoBucketN = 4096
