package sim

import "fmt"

// Interval is a half-open span [From, Until) of simulated time. It is the
// unit of the recoverable-fault schedule (Fault.Down).
type Interval struct {
	From  Time
	Until Time
}

// Contains reports whether t lies in [From, Until).
func (iv Interval) Contains(t Time) bool {
	return !t.Less(iv.From) && t.Less(iv.Until)
}

// RecoveryPolicy selects the state a process resumes with after a Down
// interval ends.
type RecoveryPolicy int

const (
	// RecoverDurable resumes the process with the state it held when it
	// went down — the process "wrote its state to disk". The process
	// machine is untouched; it simply starts taking steps again.
	RecoverDurable RecoveryPolicy = iota
	// RecoverAmnesia respawns the process from Config.Spawn at the end of
	// each down interval and resets its computing-step counter: all
	// volatile state is lost, and the process re-executes its wake-up
	// logic on the recovery wake-up delivered at the interval's end.
	RecoverAmnesia
)

// InflightPolicy selects the fate of messages whose delivery time falls
// inside one of the recipient's Down intervals.
type InflightPolicy int

const (
	// InflightDrop delivers such messages normally but, the process being
	// down, they trigger no computing step (Processed=false receptions,
	// exactly like deliveries to a crashed process). This models a
	// receiver whose network buffer dies with it.
	InflightDrop InflightPolicy = iota
	// InflightHold defers such deliveries to the end of the covering down
	// interval: the message waits in the network and is processed on
	// recovery. This models a durable mailbox.
	InflightHold
)

// NetFaults is the message-level fault layer: seeded, deterministic
// perturbations applied at delivery time, below the delay policy. All
// draws come from the run's single seeded RNG in deterministic
// (time, seq) delivery order, so a faulty network is exactly as
// reproducible as a healthy one — same seed, same losses — and
// fleet==serial determinism is untouched.
//
// Dropped messages are recorded in the trace with Message.Dropped set
// (and RecvTime = SendTime: the network never delivered them), so
// Trace.Hash and Trace.StreamHash commit to the loss pattern across
// worker counts and retention modes. They trigger no receive event and
// are invisible to the causality graph.
type NetFaults struct {
	// Drop is the i.i.d. probability in [0, 1] that a message is lost.
	Drop float64
	// Dup is the i.i.d. probability in [0, 1] that a delivered message is
	// delivered twice; the duplicate draws its own delay (and spike) and
	// is itself never dropped or re-duplicated.
	Dup float64
	// Spike adds a delay penalty to a random subset of deliveries.
	Spike SpikeRule
	// Partitions are transient link cuts; a message crossing an active
	// partition is dropped with certainty (no RNG draw).
	Partitions []Partition
}

// SpikeRule adds Extra to the drawn delay of each delivery with
// probability Prob — a delay spike on top of the configured policy. The
// spiked delivery must still respect the run's delay bounds for the
// trace to be admissible; spikes exist to push executions outside the
// [min, max] window that Ξ was computed from.
type SpikeRule struct {
	Prob  float64
	Extra Time
}

// Partition cuts every link between side A and the rest of the system
// for simulated times in [From, Until). Sends inside one side are
// unaffected; self-sends are never cut. Validation at Run setup mirrors
// scripted sends: A must be a non-empty set of in-range processes that
// leaves at least one process out, and the cut must sever at least one
// link of the configured topology (a partition that cuts nothing is a
// spec error, not a no-op).
type Partition struct {
	From  Time
	Until Time
	A     []ProcessID
}

// partitionSides flattens a Partition into a per-process side vector,
// true for side A and false for the complement. Returns a validation
// error naming the defect.
func partitionSides(pt Partition, n int) ([]bool, error) {
	sides := make([]bool, n)
	if len(pt.A) == 0 {
		return nil, fmt.Errorf("sim: partition side A is empty")
	}
	for _, p := range pt.A {
		if int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("sim: partition side A has process %d outside [0, %d)", p, n)
		}
		if sides[p] {
			return nil, fmt.Errorf("sim: partition side A lists process %d twice", p)
		}
		sides[p] = true
	}
	if len(pt.A) == n {
		return nil, fmt.Errorf("sim: partition side A covers every process, nothing to cut off")
	}
	return sides, nil
}
