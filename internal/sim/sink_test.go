package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/rat"
)

// sinkTestConfig is a mid-size broadcast run with a crash fault, so the
// record contains processed and unprocessed events, wake-ups, and real
// traffic — everything the digest folds.
func sinkTestConfig() Config {
	return Config{
		N:      6,
		Spawn:  broadcastSpawn(5),
		Faults: map[ProcessID]Fault{5: {CrashAfter: 2}},
		Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:   7,
	}
}

func TestParseRetention(t *testing.T) {
	good := map[string]Retention{
		"full":      {Mode: RetainFullMode},
		"none":      {Mode: RetainNoneMode},
		"window/1":  {Mode: RetainWindowMode, Window: 1},
		"window/64": {Mode: RetainWindowMode, Window: 64},
		// Beyond MaxInt (on 32-bit platforms) the window clamps: it
		// never slides either way.
		"window/9223372036854775807": {Mode: RetainWindowMode, Window: math.MaxInt},
	}
	for spec, want := range good {
		s, err := ParseRetention(spec)
		if err != nil {
			t.Fatalf("ParseRetention(%q): %v", spec, err)
		}
		if s.Retention() != want {
			t.Fatalf("ParseRetention(%q) = %+v, want %+v", spec, s.Retention(), want)
		}
	}
	for _, spec := range []string{"", "window/0", "window/-3", "window/", "window/x", "window/9223372036854775808", "ring", "Full"} {
		if _, err := ParseRetention(spec); err == nil {
			t.Fatalf("ParseRetention(%q): want error", spec)
		}
	}
}

// TestRetentionEquivalence is the sink-equivalence contract at the engine
// level: the same Config run under full, window, and none retention agrees
// on every total, on the stream digest, and on truncation, and the
// window's retained suffix is exactly the tail of the complete record. The
// truncated cases cut a lossy run and a partitioned one mid-stream
// (MaxEvents), so the bounded modes must also stop at exactly the
// full-retention run's event.
func TestRetentionEquivalence(t *testing.T) {
	cases := map[string]struct {
		cfg       func() Config
		truncated bool
	}{
		"crash": {cfg: sinkTestConfig},
		"lossy-max-events": {cfg: func() Config {
			return Config{
				N: 24, Spawn: broadcastSpawn(8),
				Delays: UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
				Net: &NetFaults{
					Drop: 0.15, Dup: 0.1,
					Spike: SpikeRule{Prob: 0.2, Extra: rat.FromInt(3)},
				},
				Topology: Ring(24), Seed: 9, MaxEvents: 300,
			}
		}, truncated: true},
		"partition-max-events": {cfg: func() Config {
			return Config{
				N: 16, Spawn: broadcastSpawn(20),
				Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Net: &NetFaults{Partitions: []Partition{{
					From: rat.FromInt(2), Until: rat.FromInt(4),
					A: []ProcessID{0, 1, 2, 3, 4, 5, 6, 7},
				}}},
				Topology: Ring(16), Seed: 13, MaxEvents: 120,
			}
		}, truncated: true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			checkRetentionEquivalence(t, tc.cfg, tc.truncated)
		})
	}
}

func checkRetentionEquivalence(t *testing.T, build func() Config, truncated bool) {
	full, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	ft := full.Trace
	if full.Truncated != truncated {
		t.Fatalf("full run truncated = %v, want %v", full.Truncated, truncated)
	}
	if !ft.Complete() || ft.Retention() != RetainFullMode {
		t.Fatalf("default run not complete (retention %v)", ft.Retention())
	}
	if ft.TotalEvents() != len(ft.Events) || ft.TotalMsgs() != len(ft.Msgs) {
		t.Fatalf("complete totals (%d, %d) != lengths (%d, %d)",
			ft.TotalEvents(), ft.TotalMsgs(), len(ft.Events), len(ft.Msgs))
	}
	if len(ft.Events) < 40 {
		t.Fatalf("test run too small: %d events", len(ft.Events))
	}
	if got, want := ft.StreamHash(), foldRecord(ft); got != want {
		t.Fatalf("engine digest %016x, reference fold of the complete record %016x", got, want)
	}

	const k = 16
	engine := NewEngine() // shared engine: also exercises cross-mode reuse
	for _, tc := range []struct {
		name string
		sink Sink
	}{
		{"retain-all-sink", RetainAll()},
		{"window", RetainWindow(k)},
		{"none", RetainNone()},
	} {
		cfg := build()
		cfg.Sink = tc.sink
		res, err := engine.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bt := res.Trace
		if bt.TotalEvents() != ft.TotalEvents() || bt.TotalMsgs() != ft.TotalMsgs() {
			t.Fatalf("%s: totals (%d, %d), want (%d, %d)",
				tc.name, bt.TotalEvents(), bt.TotalMsgs(), ft.TotalEvents(), ft.TotalMsgs())
		}
		if bt.StreamHash() != ft.StreamHash() {
			t.Fatalf("%s: stream hash %016x, want %016x", tc.name, bt.StreamHash(), ft.StreamHash())
		}
		if res.Truncated != full.Truncated {
			t.Fatalf("%s: truncated %v, want %v", tc.name, res.Truncated, full.Truncated)
		}
		switch bt.Retention() {
		case RetainFullMode:
			if ft.Hash() != bt.Hash() {
				t.Fatalf("%s: complete trace hash diverged", tc.name)
			}
		case RetainWindowMode:
			if len(bt.Events) < k || len(bt.Events) >= 2*k {
				t.Fatalf("window holds %d events, want within [%d, %d)", len(bt.Events), k, 2*k)
			}
			if len(bt.Msgs) != len(bt.Events) {
				t.Fatalf("window Msgs length %d, want parallel to Events %d", len(bt.Msgs), len(bt.Events))
			}
			first := bt.FirstRetained()
			if first+len(bt.Events) != bt.TotalEvents() {
				t.Fatalf("window [%d, %d) does not end at total %d", first, first+len(bt.Events), bt.TotalEvents())
			}
			for pos := first; pos < bt.TotalEvents(); pos++ {
				ev, ok := bt.EventByPos(pos)
				if !ok {
					t.Fatalf("window: event %d not retrievable", pos)
				}
				if want := ft.Events[pos]; ev != want {
					t.Fatalf("window event %d = %+v, want %+v", pos, ev, want)
				}
				m, ok := bt.TriggerOf(pos)
				if !ok {
					t.Fatalf("window: trigger of %d not retrievable", pos)
				}
				if want := ft.Msgs[ft.Events[pos].Trigger]; m != want {
					t.Fatalf("window trigger %d = %+v, want %+v", pos, m, want)
				}
			}
			if _, ok := bt.EventByPos(first - 1); ok {
				t.Fatal("window: evicted event still retrievable")
			}
		case RetainNoneMode:
			if len(bt.Events) != 0 || len(bt.Msgs) != 0 {
				t.Fatalf("none retained %d events, %d messages", len(bt.Events), len(bt.Msgs))
			}
			if _, ok := bt.EventByPos(0); ok {
				t.Fatal("none: EventByPos(0) succeeded")
			}
		}
	}

	// The shared engine must still produce byte-identical full traces
	// after bounded-mode runs (hermeticity across retention modes).
	again, err := engine.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if again.Trace.Hash() != ft.Hash() {
		t.Fatal("full-retention trace changed after bounded-mode engine reuse")
	}
}

// recordingSink counts callbacks and checks stream positions.
type recordingSink struct {
	r      Retention
	events int
	msgs   int
	lastID MsgID
}

func (s *recordingSink) Retention() Retention { return s.r }
func (s *recordingSink) Event(*Event)         { s.events++ }
func (s *recordingSink) Message(m *Message) {
	if s.msgs > 0 && m.ID != s.lastID+1 {
		panic("messages observed out of ID order")
	}
	s.lastID = m.ID
	s.msgs++
}

func TestCustomSinkObservesEverything(t *testing.T) {
	for _, r := range []Retention{
		{Mode: RetainFullMode},
		{Mode: RetainWindowMode, Window: 8},
		{Mode: RetainNoneMode},
	} {
		sink := &recordingSink{r: r}
		cfg := sinkTestConfig()
		cfg.Sink = sink
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", r.Mode, err)
		}
		if sink.events != res.Trace.TotalEvents() {
			t.Fatalf("%v: sink saw %d events, trace has %d", r.Mode, sink.events, res.Trace.TotalEvents())
		}
		if sink.msgs != res.Trace.TotalMsgs() {
			t.Fatalf("%v: sink saw %d messages, trace has %d", r.Mode, sink.msgs, res.Trace.TotalMsgs())
		}
	}
}

func TestRetentionConfigErrors(t *testing.T) {
	cfg := sinkTestConfig()
	cfg.Sink = RetainWindow(0)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Window") {
		t.Fatalf("window 0: err = %v, want Window error", err)
	}
	cfg = sinkTestConfig()
	cfg.Sink = RetainNone()
	cfg.Monitor = func(*Trace) error { return nil }
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Monitor") {
		t.Fatalf("monitor+none: err = %v, want Monitor error", err)
	}
}

// foldRecord is the reference stream digest of a complete trace: every
// event in record order, then every message in ID order, folded after the
// fact. The engine folds the same streams as it records them.
func foldRecord(t *Trace) uint64 {
	var d streamDigest
	d.init()
	for i := range t.Events {
		d.foldEvent(&t.Events[i])
	}
	for i := range t.Msgs {
		d.foldMessage(&t.Msgs[i])
	}
	return d.sum()
}

// TestStreamHashOfUnrecordedTraces pins StreamHash for traces Engine.Run
// did not record: a trace rebuilt with Reassemble or TraceBuilder.Build,
// or read back with ReadJSON, hashes like the run whose streams it holds;
// a Trace literal has folded nothing and returns 0.
func TestStreamHashOfUnrecordedTraces(t *testing.T) {
	res, err := Run(sinkTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ft := res.Trace
	want := ft.StreamHash()
	re, err := Reassemble(ft.N, ft.Events, ft.Msgs, ft.Faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.StreamHash(); got != want {
		t.Errorf("Reassemble: stream hash %016x, want %016x", got, want)
	}
	var buf bytes.Buffer
	if err := ft.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.StreamHash(); got != want {
		t.Errorf("ReadJSON: stream hash %016x, want %016x", got, want)
	}

	built := NewTraceBuilder(2).WakeAll(rat.Zero).MsgAt(0, 0, 1, 1, nil).MustBuild()
	if got, ref := built.StreamHash(), foldRecord(built); got != ref || got == 0 {
		t.Errorf("TraceBuilder.Build: stream hash %016x, want the reference fold %016x", got, ref)
	}
	literal := &Trace{N: built.N, Events: built.Events, Msgs: built.Msgs, Faulty: built.Faulty}
	if got := literal.StreamHash(); got != 0 {
		t.Errorf("Trace literal: stream hash %016x, want 0", got)
	}
}

// TestFNVUint64MatchesBytewise checks the zero-byte shortcut of fnvUint64
// against the plain eight-step FNV-1a fold for values whose highest set
// byte is at every position, and for negative values (-1, -7) as uint64.
func TestFNVUint64MatchesBytewise(t *testing.T) {
	bytewise := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
		return h
	}
	vals := []uint64{0, 1, 0xff, 0x100, 0x8000, 1 << 63, ^uint64(0), ^uint64(6)}
	for k := 0; k < 64; k += 7 {
		vals = append(vals, 1<<k, 1<<k|0xa5)
	}
	for _, h := range []uint64{fnvOffset64, 0, 12345} {
		for _, v := range vals {
			if got, want := fnvUint64(h, v), bytewise(h, v); got != want {
				t.Errorf("fnvUint64(%#x, %#x) = %#x, want %#x", h, v, got, want)
			}
		}
	}
}
