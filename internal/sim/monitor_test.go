package sim

import (
	"errors"
	"testing"

	"repro/internal/rat"
)

func broadcastConfig(steps int) Config {
	return Config{
		N: 3,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: ConstantDelay{D: rat.One},
		Seed:   1,
	}
}

// TestMonitorSeesEveryEvent pins the hook contract: called once per
// recorded receive event, with the live trace ending at that event.
func TestMonitorSeesEveryEvent(t *testing.T) {
	cfg := broadcastConfig(3)
	calls := 0
	cfg.Monitor = func(tr *Trace) error {
		calls++
		if len(tr.Events) != calls {
			t.Fatalf("call %d sees %d events", calls, len(tr.Events))
		}
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorErr != nil {
		t.Fatalf("MonitorErr = %v", res.MonitorErr)
	}
	if calls != len(res.Trace.Events) {
		t.Fatalf("monitor called %d times for %d events", calls, len(res.Trace.Events))
	}
}

// TestMonitorStopsRun pins early abort: the error is surfaced, the trace
// ends at the aborting event, and Truncated stays false.
func TestMonitorStopsRun(t *testing.T) {
	cfg := broadcastConfig(5)
	sentinel := errors.New("stop here")
	cfg.Monitor = func(tr *Trace) error {
		if len(tr.Events) == 7 {
			return sentinel
		}
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorErr != sentinel {
		t.Fatalf("MonitorErr = %v, want sentinel", res.MonitorErr)
	}
	if len(res.Trace.Events) != 7 {
		t.Fatalf("trace has %d events, want 7", len(res.Trace.Events))
	}
	if res.Truncated {
		t.Fatal("monitor abort flagged as truncation")
	}
}

// TestMonitorHermeticity: a monitored run yields the same trace prefix as
// the unmonitored run of the same config, and a pooled engine carries no
// monitor state into the next run.
func TestMonitorHermeticity(t *testing.T) {
	e := NewEngine()
	full, err := e.Run(broadcastConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	cfg := broadcastConfig(4)
	stop := errors.New("stop")
	cfg.Monitor = func(tr *Trace) error {
		if len(tr.Events) == 5 {
			return stop
		}
		return nil
	}
	aborted, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if aborted.MonitorErr != stop || len(aborted.Trace.Events) != 5 {
		t.Fatalf("aborted run: err=%v events=%d", aborted.MonitorErr, len(aborted.Trace.Events))
	}
	for i, ev := range aborted.Trace.Events {
		if ev.Proc != full.Trace.Events[i].Proc || ev.Index != full.Trace.Events[i].Index ||
			!ev.Time.Equal(full.Trace.Events[i].Time) {
			t.Fatalf("event %d differs between monitored and unmonitored run", i)
		}
	}

	again, err := e.Run(broadcastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if again.MonitorErr != nil {
		t.Fatal("monitor error leaked into a later pooled run")
	}
	if again.Trace.Hash() != full.Trace.Hash() {
		t.Fatal("pooled engine not hermetic after a monitored run")
	}
}
