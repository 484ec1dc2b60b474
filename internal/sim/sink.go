package sim

import (
	"fmt"
	"strings"
)

// RetentionMode selects how much of the execution record a run keeps.
type RetentionMode int

const (
	// RetainFullMode keeps every event and message — the default, and the
	// only mode whose Trace is complete (Trace.Complete reports true).
	RetainFullMode RetentionMode = iota
	// RetainWindowMode keeps a sliding window of the last K events (and
	// their trigger messages) — enough to feed the incremental
	// admissibility engine through Config.Monitor while bounding memory.
	RetainWindowMode
	// RetainNoneMode keeps only counters and the running stream digest —
	// the throughput mode for sweeps that never inspect the trace.
	RetainNoneMode
)

func (m RetentionMode) String() string {
	switch m {
	case RetainFullMode:
		return "full"
	case RetainWindowMode:
		return "window"
	case RetainNoneMode:
		return "none"
	default:
		return fmt.Sprintf("RetentionMode(%d)", int(m))
	}
}

// Retention is the storage policy a Sink asks the engine to apply.
type Retention struct {
	Mode RetentionMode
	// Window is the number of most-recent events retained in
	// RetainWindowMode; it must be at least 1 and is ignored otherwise.
	Window int
}

// Sink receives each Event and Message as the engine finalizes it and
// declares the trace-retention policy of the run. The built-in sinks
// (RetainAll, RetainWindow, RetainNone) carry a policy and observe
// nothing; custom implementations can stream the execution elsewhere —
// the callbacks fire in record order regardless of what the Trace
// retains. Callbacks must not retain the pointed-to values: the engine
// reuses the backing storage.
type Sink interface {
	// Retention returns the storage policy the engine applies to the
	// run's Trace.
	Retention() Retention
	// Event observes one finalized receive event, immediately after it is
	// recorded (and before Config.Monitor runs).
	Event(ev *Event)
	// Message observes one finalized message at send time, after its
	// receive time has been assigned.
	Message(m *Message)
}

// retentionSink is the no-op observer behind the built-in policies.
type retentionSink struct{ r Retention }

func (s retentionSink) Retention() Retention { return s.r }
func (s retentionSink) Event(*Event)         {}
func (s retentionSink) Message(*Message)     {}

// RetainAll returns the default policy: keep the complete trace. A nil
// Config.Sink is equivalent.
func RetainAll() Sink { return retentionSink{Retention{Mode: RetainFullMode}} }

// RetainWindow returns the sliding-window policy keeping the last k
// events. Run rejects k < 1.
func RetainWindow(k int) Sink {
	return retentionSink{Retention{Mode: RetainWindowMode, Window: k}}
}

// RetainNone returns the counters-and-digest-only policy.
func RetainNone() Sink { return retentionSink{Retention{Mode: RetainNoneMode}} }

// ParseRetention parses the textual retention spec used by the workload
// layer's trace parameter: "full", "window/K" (K >= 1), or "none".
func ParseRetention(spec string) (Sink, error) {
	switch {
	case spec == "full":
		return RetainAll(), nil
	case spec == "none":
		return RetainNone(), nil
	case strings.HasPrefix(spec, "window/"):
		// A window beyond MaxInt events clamps to it: either never slides.
		k, err := parseCount(strings.TrimPrefix(spec, "window/"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("sim: retention %q: want window/K with K >= 1", spec)
		}
		return RetainWindow(k), nil
	default:
		return nil, fmt.Errorf("sim: unknown retention %q (want full, window/K, none)", spec)
	}
}

// streamDigest is a pair of running FNV-64a accumulators over the
// execution record: one folding events in record order, one folding
// messages in ID (send) order. The engine maintains it incrementally
// under every retention mode, so RetainAll and RetainNone runs of the
// same Config digest equal (the sink-equivalence contract). Payloads and notes are
// deliberately excluded: folding them would force a reflective rendering
// allocation per event on the throughput path, and the delivery schedule
// already pins every structural choice the engine makes.
type streamDigest struct {
	events uint64
	msgs   uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvUint64 folds the 8 little-endian bytes of v. A zero byte's step is a
// bare multiply by the prime, so the zero bytes above v's highest set byte
// (most of them: IDs, indices and times are small) fold as one multiply
// by a power of the prime.
func fnvUint64(h, v uint64) uint64 {
	i := 0
	for ; v != 0; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h * fnvPrimePow[8-i]
}

// fnvPrimePow[k] is fnvPrime64^k (mod 2^64).
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvTime folds an exact rational time: the inline num/den fast path is
// allocation-free; promoted values fall back to the canonical string
// rendering, which is unique per value, so equal times always fold
// identically regardless of representation history.
func fnvTime(h uint64, t Time) uint64 {
	if num, den, ok := t.Inline(); ok {
		h = fnvUint64(h, uint64(num))
		return fnvUint64(h, uint64(den))
	}
	h = fnvUint64(h, ^uint64(0)) // promoted marker, distinct from any inline den
	return fnvString(h, t.String())
}

func (d *streamDigest) init() {
	d.events = fnvOffset64
	d.msgs = fnvOffset64
}

func (d *streamDigest) foldEvent(ev *Event) {
	h := d.events
	h = fnvUint64(h, uint64(ev.Proc))
	h = fnvUint64(h, uint64(ev.Index))
	h = fnvTime(h, ev.Time)
	h = fnvUint64(h, uint64(ev.Trigger))
	if ev.Processed {
		h = fnvUint64(h, 1)
	} else {
		h = fnvUint64(h, 0)
	}
	d.events = h
}

func (d *streamDigest) foldMessage(m *Message) {
	h := d.msgs
	h = fnvUint64(h, uint64(m.ID))
	h = fnvUint64(h, uint64(m.From))
	h = fnvUint64(h, uint64(m.To))
	h = fnvUint64(h, uint64(m.SendStep))
	h = fnvTime(h, m.SendTime)
	h = fnvTime(h, m.RecvTime)
	if m.Dropped {
		// Folded only for dropped messages, so digests of fault-free runs
		// are unchanged byte for byte.
		h = fnvUint64(h, 1)
	}
	d.msgs = h
}

// sum combines the two streams into one digest.
func (d *streamDigest) sum() uint64 {
	return fnvUint64(fnvUint64(fnvOffset64, d.events), d.msgs)
}
