package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rat"
)

// echo replies to every ping with a pong, up to a budget.
type echo struct {
	pings  int
	budget int
}

type ping struct{ Hop int }

func (e *echo) Step(env *Env, msg Message) {
	switch m := msg.Payload.(type) {
	case Wakeup:
		if env.Self() == 0 {
			env.Send(1, ping{Hop: 0})
		}
	case ping:
		e.pings++
		if m.Hop < e.budget {
			to := ProcessID(1 - int(env.Self()))
			env.Send(to, ping{Hop: m.Hop + 1})
		}
		env.SetNote(m.Hop)
	}
}

func twoProcConfig(budget int) Config {
	return Config{
		N:      2,
		Spawn:  func(p ProcessID) Process { return &echo{budget: budget} },
		Delays: ConstantDelay{D: rat.One},
	}
}

func TestPingPong(t *testing.T) {
	res, err := Run(twoProcConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("run unexpectedly truncated")
	}
	// 2 wake-ups + 6 pings (hops 0..5).
	if got := len(tr.Events); got != 8 {
		t.Errorf("got %d events, want 8", got)
	}
	// Notes record hop numbers on ping steps.
	var hops []int
	for _, ev := range tr.Events {
		if h, ok := ev.Note.(int); ok {
			hops = append(hops, h)
		}
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(hops, want) {
		t.Errorf("hops = %v, want %v", hops, want)
	}
	// Times advance by one per hop.
	last := tr.Events[len(tr.Events)-1]
	if !last.Time.Equal(rat.FromInt(6)) {
		t.Errorf("final event at %v, want 6", last.Time)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Trace {
		cfg := Config{
			N:      3,
			Spawn:  func(p ProcessID) Process { return &echo{budget: 10} },
			Delays: UniformDelay{Min: rat.One, Max: rat.FromInt(3)},
			Seed:   42,
		}
		cfg.Spawn = func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if _, ok := msg.Payload.(Wakeup); ok {
					env.Broadcast(ping{})
				}
			})
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	a, b := run(), run()
	if len(a.Events) != len(b.Events) || len(a.Msgs) != len(b.Msgs) {
		t.Fatalf("nondeterministic sizes: %d/%d events, %d/%d msgs",
			len(a.Events), len(b.Events), len(a.Msgs), len(b.Msgs))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Proc != eb.Proc || ea.Index != eb.Index || !ea.Time.Equal(eb.Time) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestWakeupFirst(t *testing.T) {
	// Process 1 is down over [0, 10), so its wake-up is deferred to 10; a
	// zero-delay message sent to it at time 0 must still be received only
	// at/after its wake-up, and after the wake-up in delivery order.
	var order []string
	cfg := Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				switch msg.Payload.(type) {
				case Wakeup:
					order = append(order, "wake")
					if env.Self() == 0 {
						env.Send(1, ping{})
					}
				case ping:
					order = append(order, "ping")
				}
			})
		},
		Delays: ConstantDelay{D: rat.Zero},
		Faults: map[ProcessID]Fault{1: {
			CrashAfter: NeverCrash,
			Down:       []Interval{{From: rat.Zero, Until: rat.FromInt(10)}},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"wake", "wake", "ping"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	// The ping's receive time is clamped to the wake-up time.
	var pingMsg *Message
	for i := range res.Trace.Msgs {
		if _, ok := res.Trace.Msgs[i].Payload.(ping); ok {
			pingMsg = &res.Trace.Msgs[i]
		}
	}
	if pingMsg == nil {
		t.Fatal("ping message not found")
	}
	if !pingMsg.RecvTime.Equal(rat.FromInt(10)) {
		t.Errorf("ping received at %v, want 10", pingMsg.RecvTime)
	}
}

func TestCrashFault(t *testing.T) {
	cfg := twoProcConfig(10)
	cfg.Faults = map[ProcessID]Fault{1: Crash(2)} // wake-up + one ping
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if !tr.Faulty[1] || tr.Faulty[0] {
		t.Errorf("Faulty = %v, want [false true]", tr.Faulty)
	}
	if got := stepCount(tr, 1); got != 2 {
		t.Errorf("crashed process executed %d steps, want 2", got)
	}
	// Receive events at the crashed process still occur (Processed=false).
	sawUnprocessed := false
	for _, ev := range tr.Events {
		if ev.Proc == 1 && !ev.Processed {
			sawUnprocessed = true
		}
	}
	if !sawUnprocessed {
		t.Error("no unprocessed receive event at crashed process")
	}
}

func TestSilentProcess(t *testing.T) {
	cfg := twoProcConfig(3)
	cfg.Faults = map[ProcessID]Fault{1: Silent()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepCount(res.Trace, 1); got != 0 {
		t.Errorf("silent process executed %d steps, want 0", got)
	}
	if stepCount(res.Trace, 0) != 1 {
		t.Errorf("process 0 should only execute its wake-up")
	}
}

func TestByzantineFault(t *testing.T) {
	// Byzantine process 1 replies with forged hop numbers.
	byz := ProcessFunc(func(env *Env, msg Message) {
		if _, ok := msg.Payload.(ping); ok {
			env.Send(0, ping{Hop: 999})
		}
	})
	cfg := twoProcConfig(3)
	cfg.Faults = map[ProcessID]Fault{1: ByzantineFault(byz)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forged := false
	for _, m := range res.Trace.Msgs {
		if p, ok := m.Payload.(ping); ok && p.Hop == 999 {
			forged = true
		}
	}
	if !forged {
		t.Error("Byzantine handler did not run")
	}
}

func TestScriptedSends(t *testing.T) {
	got := 0
	cfg := Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if s, ok := msg.Payload.(string); ok && s == "scripted" {
					got++
				}
			})
		},
		Delays: ConstantDelay{D: rat.One},
		Faults: map[ProcessID]Fault{1: {
			CrashAfter: NeverCrash,
			Script: []ScriptedSend{
				{At: rat.FromInt(5), To: 0, Payload: "scripted"},
				{At: rat.FromInt(7), To: 0, Payload: "scripted"},
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("received %d scripted messages, want 2", got)
	}
	// Scripted messages carry the faulty sender's ID.
	for _, m := range res.Trace.Msgs {
		if s, ok := m.Payload.(string); ok && s == "scripted" {
			if m.From != 1 || m.SendStep != SendStepScripted {
				t.Errorf("scripted message attribution wrong: %+v", m)
			}
		}
	}
}

func TestMaxEventsTruncation(t *testing.T) {
	// Two processes ping forever.
	cfg := Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				switch msg.Payload.(type) {
				case Wakeup:
					if env.Self() == 0 {
						env.Send(1, ping{})
					}
				case ping:
					env.Send(ProcessID(1-int(env.Self())), ping{})
				}
			})
		},
		Delays:    ConstantDelay{D: rat.One},
		MaxEvents: 50,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("expected truncation")
	}
	if len(res.Trace.Events) > 50 {
		t.Errorf("%d events exceed MaxEvents", len(res.Trace.Events))
	}
}

func TestUntilPredicate(t *testing.T) {
	cfg := twoProcConfig(100)
	cfg.Until = func(procs []Process) bool {
		return procs[0].(*echo).pings >= 3
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("Until stop reported as truncation")
	}
	if got := res.Procs[0].(*echo).pings; got != 3 {
		t.Errorf("stopped at %d pings, want 3", got)
	}
}

func TestTopologyRestriction(t *testing.T) {
	// Ring topology 0->1->2->0 without self-loops. Broadcast reaches the
	// next process in the ring plus — regardless of the links — the
	// sender itself: self-delivery is unconditional
	// (Algorithm 1's assumption), so each process receives exactly two
	// copies, one from itself and one from its predecessor.
	recv := make([]int, 3)
	cfg := Config{
		N: 3,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				switch msg.Payload.(type) {
				case Wakeup:
					env.Broadcast("hi")
				case string:
					recv[env.Self()]++
				}
			})
		},
		Topology: Ring(3),
		Delays:   ConstantDelay{D: rat.One},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recv, []int{2, 2, 2}) {
		t.Errorf("receive counts %v, want [2 2 2]", recv)
	}
}

func TestSendOutsideTopologyPanics(t *testing.T) {
	cfg := Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if _, ok := msg.Payload.(Wakeup); ok && env.Self() == 0 {
					env.Send(1, "x")
				}
			})
		},
		Topology: NewLinks(2, nil),
		Delays:   ConstantDelay{D: rat.One},
	}
	defer func() {
		if recover() == nil {
			t.Error("send outside topology did not panic")
		}
	}()
	_, _ = Run(cfg)
}

func TestConfigValidation(t *testing.T) {
	valid := twoProcConfig(1)
	reversed := UniformDelay{Min: rat.FromInt(2), Max: rat.One}
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string // error substring; "" checks only that Run fails
	}{
		{"zero N", func(c *Config) { c.N = 0 }, ""},
		{"nil spawn", func(c *Config) { c.Spawn = nil }, ""},
		{"nil delays", func(c *Config) { c.Delays = nil }, ""},
		{"fault out of range", func(c *Config) { c.Faults = map[ProcessID]Fault{5: Crash(1)} }, ""},
		{"bad crash after", func(c *Config) { c.Faults = map[ProcessID]Fault{0: {CrashAfter: -7}} }, ""},
		{"negative constant delay", func(c *Config) { c.Delays = ConstantDelay{D: rat.New(-1, 2)} }, "constant delay -1/2 is negative"},
		{"negative uniform minimum", func(c *Config) { c.Delays = UniformDelay{Min: rat.FromInt(-1), Max: rat.One} }, "negative minimum"},
		{"reversed uniform bounds", func(c *Config) { c.Delays = reversed }, "uniform delay [2, 1] has maximum below minimum"},
		{"reversed bounds on links", func(c *Config) {
			// Two bad links: the error names the lowest, whatever the map order.
			c.Delays = PerLinkDelay{
				Default: ConstantDelay{D: rat.One},
				Links:   map[Link]DelayPolicy{{From: 1, To: 0}: reversed, {From: 0, To: 1}: reversed},
			}
		}, "(link 0->1)"},
		{"negative override", func(c *Config) {
			c.Delays = OverrideDelay{Base: ConstantDelay{D: rat.One}, Override: ConstantDelay{D: rat.FromInt(-1)}}
		}, "constant delay -1 is negative"},
	}
	for _, tt := range tests {
		cfg := valid
		tt.mutate(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: no error", tt.name)
		} else if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %q does not contain %q", tt.name, err, tt.want)
		}
	}
}

func TestZeroDelayMessages(t *testing.T) {
	// Zero delays are explicitly allowed by the ABC model (Fig. 1's m3).
	res, err := Run(Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if _, ok := msg.Payload.(Wakeup); ok && env.Self() == 0 {
					env.Send(1, ping{})
				}
			})
		},
		Delays: ConstantDelay{D: rat.Zero},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range tr.Msgs {
		if _, ok := m.Payload.(ping); ok && !m.RecvTime.Equal(m.SendTime) {
			t.Errorf("zero-delay message has recv %v != send %v", m.RecvTime, m.SendTime)
		}
	}
}

func TestTraceAccessors(t *testing.T) {
	res, err := Run(twoProcConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if got := tr.CorrectProcesses(); len(got) != 2 {
		t.Errorf("CorrectProcesses = %v", got)
	}
}

// eventsOf returns the positions (into Events) of p's receive events, in
// order.
func eventsOf(t *Trace, p ProcessID) []int {
	var out []int
	for i, ev := range t.Events {
		if ev.Proc == p {
			out = append(out, i)
		}
	}
	return out
}

// stepCount returns the number of computing steps p executed: its receive
// events with Processed set.
func stepCount(t *Trace, p ProcessID) int {
	n := 0
	for _, pos := range eventsOf(t, p) {
		if t.Events[pos].Processed {
			n++
		}
	}
	return n
}
