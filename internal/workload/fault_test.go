package workload

import (
	"strings"
	"testing"

	"repro/internal/rat"
	"repro/internal/sim"
)

// faultValues resolves the shared fault axis with the given spec over a
// throwaway source that declares only FaultParams.
func faultValues(t *testing.T, overrides map[string]string) Values {
	t.Helper()
	s := Source{Name: "faulttest", Doc: "t", Params: FaultParams()}
	v, err := s.Resolve(overrides)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestResolveFaultsCrash(t *testing.T) {
	v := faultValues(t, map[string]string{"faults": "crash/2@3"})
	faults, net, err := ResolveFaults(v, 6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net != nil {
		t.Fatalf("crash spec produced net faults %+v", net)
	}
	if len(faults) != 2 {
		t.Fatalf("got %d faults, want 2", len(faults))
	}
	// IDs n-1 downward, the clause's step as CrashAfter.
	for _, id := range []sim.ProcessID{5, 4} {
		f, ok := faults[id]
		if !ok {
			t.Fatalf("process %d not faulted (have %v)", id, faults)
		}
		if f.CrashAfter != 3 || f.Byzantine != nil || f.Script != nil {
			t.Errorf("process %d: %+v, want pure crash after 3", id, f)
		}
	}
	// Default step is 0 (silent from the start).
	v = faultValues(t, map[string]string{"faults": "crash/1"})
	faults, _, err = ResolveFaults(v, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := faults[3]; f.CrashAfter != 0 {
		t.Errorf("default crash step = %d, want 0", f.CrashAfter)
	}
}

func TestResolveFaultsNone(t *testing.T) {
	for _, spec := range []string{"none", ""} {
		v := faultValues(t, map[string]string{"faults": spec})
		faults, net, err := ResolveFaults(v, 4, nil, nil)
		if err != nil || faults != nil || net != nil {
			t.Errorf("spec %q: got (%v, %v, %v), want (nil, nil, nil)", spec, faults, net, err)
		}
	}
}

func TestResolveFaultsByz(t *testing.T) {
	type call struct{ i, budget int }
	var calls []call
	byz := func(i int, id sim.ProcessID, budget int) sim.Process {
		calls = append(calls, call{i, budget})
		return sim.ProcessFunc(func(*sim.Env, sim.Message) {})
	}
	v := faultValues(t, map[string]string{"faults": "byz/2@20+byz/1"})
	faults, _, err := ResolveFaults(v, 8, nil, byz)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 3 {
		t.Fatalf("got %d faults, want 3", len(faults))
	}
	// The adversary index runs across clauses; budgets are per clause
	// with default 60.
	want := []call{{0, 20}, {1, 20}, {2, 60}}
	if len(calls) != len(want) {
		t.Fatalf("factory called %d times, want %d", len(calls), len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d: %+v, want %+v", i, calls[i], want[i])
		}
	}
	for _, id := range []sim.ProcessID{7, 6, 5} {
		if faults[id].Byzantine == nil {
			t.Errorf("process %d has no Byzantine handler", id)
		}
	}

	// Without a factory, byz clauses are a configuration error.
	if _, _, err := ResolveFaults(v, 8, nil, nil); err == nil || !strings.Contains(err.Error(), "Byzantine") {
		t.Errorf("nil factory accepted byz clause: %v", err)
	}
}

func TestResolveFaultsScript(t *testing.T) {
	v := faultValues(t, map[string]string{"faults": "script/1@3/2"})
	faults, _, err := ResolveFaults(v, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := faults[3]
	if f.CrashAfter != sim.NeverCrash || len(f.Script) != 1 {
		t.Fatalf("process 3: %+v, want one scripted send and no crash", f)
	}
	s := f.Script[0]
	if !s.At.Equal(rat.New(3, 2)) || s.To != 0 {
		t.Errorf("scripted send %+v, want At=3/2 To=0 (smallest peer, full topology)", s)
	}

	// Under a (unidirectional) ring the target is the smallest linked
	// out-neighbor: 3's only out-link.
	faults, _, err = ResolveFaults(v, 4, sim.Ring(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if to := faults[3].Script[0].To; to != 0 {
		t.Errorf("ring scripted target = %d, want 0 (successor of 3 in Ring(4))", to)
	}
	faults, _, err = ResolveFaults(faultValues(t, map[string]string{"faults": "script/2"}), 5, sim.Ring(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if to := faults[3].Script[0].To; to != 4 {
		t.Errorf("ring scripted target for 3 = %d, want 4 (successor of 3 in Ring(5))", to)
	}
}

func TestResolveFaultsRecover(t *testing.T) {
	// Count form: n-1 downward, down over [2, 4), default policies.
	v := faultValues(t, map[string]string{"faults": "recover/2@2..4"})
	faults, net, err := ResolveFaults(v, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net != nil {
		t.Fatalf("recover spec produced net faults %+v", net)
	}
	if len(faults) != 2 {
		t.Fatalf("got %d faults, want 2", len(faults))
	}
	for _, id := range []sim.ProcessID{4, 3} {
		f := faults[id]
		if f.CrashAfter != sim.NeverCrash || len(f.Down) != 1 {
			t.Fatalf("process %d: %+v, want one down interval and no crash", id, f)
		}
		if !f.Down[0].From.Equal(rat.FromInt(2)) || !f.Down[0].Until.Equal(rat.FromInt(4)) {
			t.Errorf("process %d down over [%v, %v), want [2, 4)", id, f.Down[0].From, f.Down[0].Until)
		}
		if f.Recovery != sim.RecoverDurable || f.Inflight != sim.InflightDrop {
			t.Errorf("process %d policies (%v, %v), want defaults (durable, drop)", id, f.Recovery, f.Inflight)
		}
	}

	// Explicit target with non-default policies.
	v = faultValues(t, map[string]string{
		"faults": "recover/p0@4..12", "recovery": "amnesia", "inflight": "hold"})
	faults, _, err = ResolveFaults(v, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := faults[0]
	if !ok || len(faults) != 1 {
		t.Fatalf("explicit target: %v, want exactly process 0", faults)
	}
	if f.Recovery != sim.RecoverAmnesia || f.Inflight != sim.InflightHold {
		t.Errorf("policies (%v, %v), want (amnesia, hold)", f.Recovery, f.Inflight)
	}

	// Repeated recover clauses on the same target merge, sorted by start.
	v = faultValues(t, map[string]string{"faults": "recover/p2@6..8+recover/p2@1..3"})
	faults, _, err = ResolveFaults(v, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f = faults[2]
	if len(faults) != 1 || len(f.Down) != 2 {
		t.Fatalf("merged schedule: %v, want process 2 with two intervals", faults)
	}
	if !f.Down[0].From.Equal(rat.One) || !f.Down[1].From.Equal(rat.FromInt(6)) {
		t.Errorf("intervals start at %v, %v, want sorted 1, 6", f.Down[0].From, f.Down[1].From)
	}
}

func TestResolveFaultsNet(t *testing.T) {
	v := faultValues(t, map[string]string{"faults": "drop/0.25+dup/0.1+spike/0.5@3/2+partition/halves@2..5"})
	faults, net, err := ResolveFaults(v, 6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		t.Fatalf("net-only spec claimed processes: %v", faults)
	}
	if net == nil {
		t.Fatal("no net faults resolved")
	}
	if net.Drop != 0.25 || net.Dup != 0.1 {
		t.Errorf("drop/dup = %v/%v, want 0.25/0.1", net.Drop, net.Dup)
	}
	if net.Spike.Prob != 0.5 || !net.Spike.Extra.Equal(rat.New(3, 2)) {
		t.Errorf("spike = %+v, want prob 0.5 extra 3/2", net.Spike)
	}
	if len(net.Partitions) != 1 {
		t.Fatalf("got %d partitions, want 1", len(net.Partitions))
	}
	pt := net.Partitions[0]
	if !pt.From.Equal(rat.FromInt(2)) || !pt.Until.Equal(rat.FromInt(5)) {
		t.Errorf("partition over [%v, %v), want [2, 5)", pt.From, pt.Until)
	}
	// halves at n=6: side A is 0..2, side B the complement.
	if len(pt.A) != 3 || pt.A[0] != 0 || pt.A[2] != 2 || pt.B != nil {
		t.Errorf("halves sides A=%v B=%v, want A=[0 1 2] B=nil", pt.A, pt.B)
	}

	// pI partitions isolate one process; spike's default extra is 1.
	v = faultValues(t, map[string]string{"faults": "partition/p0@1..2+spike/1"})
	_, net, err = ResolveFaults(v, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Partitions) != 1 || len(net.Partitions[0].A) != 1 || net.Partitions[0].A[0] != 0 {
		t.Errorf("pI partition sides: %+v, want A=[0]", net.Partitions[0])
	}
	if !net.Spike.Extra.Equal(rat.One) {
		t.Errorf("default spike extra = %v, want 1", net.Spike.Extra)
	}

	// Net clauses compose with process clauses.
	v = faultValues(t, map[string]string{"faults": "crash/1+drop/0.5"})
	faults, net, err = ResolveFaults(v, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 || net == nil || net.Drop != 0.5 {
		t.Errorf("mixed spec: faults %v net %+v", faults, net)
	}

	if !NetFaulty(v) {
		t.Error("NetFaulty(crash/1+drop/0.5) = false")
	}
	if NetFaulty(faultValues(t, map[string]string{"faults": "crash/1"})) {
		t.Error("NetFaulty(crash/1) = true")
	}
	if !Recovering(faultValues(t, map[string]string{"faults": "recover/1@1..2"})) {
		t.Error("Recovering(recover/1@1..2) = false")
	}
	if Recovering(v) {
		t.Error("Recovering(crash/1+drop/0.5) = true")
	}
}

// TestResolveFaultsErrors pins the error text of malformed specs: every
// failure names the offending clause by position and raw text.
func TestResolveFaultsErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"crash", "want kind/K"},
		{"crash/x", "bad count"},
		{"crash/-1", "bad count"},
		{"crash/1@-2", "bad crash step"},
		{"byz/1@0", "bad budget"},
		{"script/1@-1", "bad time"},
		{"lost/1", "unknown kind"},
		{"crash/5", "claims 5 processes, system has 4"},
		{"crash/px", "bad target"},
		{"crash/p9", `clause 1 ("crash/p9"): target p9 outside [0, 4)`},
		{"recover/1", "recover needs a down interval"},
		{"recover/1@5", "bad interval"},
		{"recover/1@x..2", "bad interval start"},
		{"recover/1@1..y", "bad interval end"},
		{"recover/1@3..3", "empty interval"},
		{"drop/2", "bad probability"},
		{"drop/x", "bad probability"},
		{"drop/0.5@1", "drop takes no @argument"},
		{"dup/-0.5", "bad probability"},
		{"spike/0.5@-1", "bad spike delay"},
		{"partition/halves", "partition needs an interval"},
		{"partition/h@1..2", "bad partition spec"},
		{"partition/p9@1..2", "target p9 outside [0, 4)"},
		{"drop/0.1+drop/0.2", `clause 2 ("drop/0.2"): duplicate drop clause`},
		{"crash/p3+recover/p3@1..2", `clause 2 ("recover/p3@1..2"): process 3 already claimed by clause 1`},
		{"crash/1+crash/1@2+recover/1@1..2+crash/2", "claims 5 processes, system has 4"},
	}
	for _, tc := range cases {
		v := faultValues(t, map[string]string{"faults": tc.spec})
		_, _, err := ResolveFaults(v, 4, nil, func(int, sim.ProcessID, int) sim.Process {
			return sim.ProcessFunc(func(*sim.Env, sim.Message) {})
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: got %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
	// Bad policy values are rejected once the spec engages recovery.
	v := faultValues(t, map[string]string{"faults": "recover/1@1..2", "recovery": "ephemeral"})
	if _, _, err := ResolveFaults(v, 4, nil, nil); err == nil || !strings.Contains(err.Error(), "want durable or amnesia") {
		t.Errorf("recovery=ephemeral: %v", err)
	}
	v = faultValues(t, map[string]string{"faults": "recover/1@1..2", "inflight": "queue"})
	if _, _, err := ResolveFaults(v, 4, nil, nil); err == nil || !strings.Contains(err.Error(), "want drop or hold") {
		t.Errorf("inflight=queue: %v", err)
	}
}
