package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rat"
)

func broadcastSpawn(steps int) func(ProcessID) Process {
	return func(ProcessID) Process {
		return ProcessFunc(func(env *Env, msg Message) {
			if env.StepIndex() < steps {
				env.Broadcast(env.StepIndex())
			}
		})
	}
}

func TestRingStructure(t *testing.T) {
	l := Ring(5)
	if l.N() != 5 || l.NumLinks() != 5 || l.MaxOutDegree() != 1 {
		t.Fatalf("Ring(5): n=%d links=%d maxOut=%d", l.N(), l.NumLinks(), l.MaxOutDegree())
	}
	for p := ProcessID(0); p < 5; p++ {
		next := (p + 1) % 5
		if !l.Linked(p, next) {
			t.Errorf("missing link %d -> %d", p, next)
		}
		if l.Linked(next, p) {
			t.Errorf("unexpected reverse link %d -> %d", next, p)
		}
	}
}

func TestTorusStructure(t *testing.T) {
	l := Torus(3, 4)
	if l.N() != 12 {
		t.Fatalf("Torus(3,4): n=%d", l.N())
	}
	// Every interior-equivalent node of a wraparound grid has degree 4, and
	// links are bidirectional.
	for p := ProcessID(0); int(p) < l.N(); p++ {
		if d := len(l.Out(p)); d != 4 {
			t.Errorf("process %d has out-degree %d, want 4", p, d)
		}
		for _, q := range l.Out(p) {
			if !l.Linked(q, p) {
				t.Errorf("torus link %d -> %d not bidirectional", p, q)
			}
		}
	}
	// Degenerate dimensions collapse duplicates rather than double-count.
	if d := Torus(1, 4).MaxOutDegree(); d != 2 {
		t.Errorf("Torus(1,4) max out-degree %d, want 2", d)
	}
}

func TestRandomRegularStructure(t *testing.T) {
	l := RandomRegular(20, 3, 7)
	for p := ProcessID(0); p < 20; p++ {
		if d := len(l.Out(p)); d != 3 {
			t.Errorf("process %d has out-degree %d, want 3", p, d)
		}
		if l.Linked(p, p) {
			t.Errorf("process %d has a self-loop", p)
		}
	}
	// Same seed, same graph; different seed, (overwhelmingly) different.
	if a, b := RandomRegular(20, 3, 7), RandomRegular(20, 3, 7); !sameLinks(a, b) {
		t.Error("RandomRegular not deterministic for a fixed seed")
	}
	if a, b := RandomRegular(20, 3, 7), RandomRegular(20, 3, 8); sameLinks(a, b) {
		t.Error("RandomRegular ignores the seed")
	}
}

func TestScaleFreeStructure(t *testing.T) {
	l := ScaleFree(60, 2, 3)
	// Bidirectional; every node after the first attaches to >= 1 earlier
	// node, so the graph is connected and has at least n-1 undirected edges.
	if l.NumLinks() < 2*(60-1) {
		t.Errorf("ScaleFree(60,2): %d directed links, want >= %d", l.NumLinks(), 2*59)
	}
	for p := ProcessID(0); int(p) < l.N(); p++ {
		for _, q := range l.Out(p) {
			if !l.Linked(q, p) {
				t.Errorf("scale-free link %d -> %d not bidirectional", p, q)
			}
		}
	}
	if a, b := ScaleFree(60, 2, 3), ScaleFree(60, 2, 3); !sameLinks(a, b) {
		t.Error("ScaleFree not deterministic for a fixed seed")
	}
}

// TestScaleFreeSaturatedIsComplete: with m >= n-1 every node attaches to
// all earlier ones, so ScaleFree is the complete graph, Islands(n, 1).
func TestScaleFreeSaturatedIsComplete(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for _, m := range []int{max(1, n-1), n, math.MaxInt} {
			if !sameLinks(ScaleFree(n, m, 5), Islands(n, 1)) {
				t.Fatalf("ScaleFree(%d, %d) is not the complete graph", n, m)
			}
		}
	}
}

func TestIslandsStructure(t *testing.T) {
	l := Islands(7, 3) // sizes 3, 2, 2
	for p := ProcessID(0); p < 7; p++ {
		for q := ProcessID(0); q < 7; q++ {
			want := p != q && IslandOf(7, 3, p) == IslandOf(7, 3, q)
			if got := l.Linked(p, q); got != want {
				t.Errorf("Islands(7,3).Linked(%d,%d) = %v, want %v", p, q, got, want)
			}
		}
	}
}

func sameLinks(a, b *Links) bool {
	if a.N() != b.N() || a.NumLinks() != b.NumLinks() {
		return false
	}
	for p := ProcessID(0); int(p) < a.N(); p++ {
		ao, bo := a.Out(p), b.Out(p)
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return true
}

func TestNewLinksSortsAndDedups(t *testing.T) {
	l := NewLinks(4, [][]ProcessID{{3, 1, 3, 1, 2}})
	if got := fmt.Sprint(l.Out(0)); got != "[1 2 3]" {
		t.Errorf("Out(0) = %s, want [1 2 3]", got)
	}
	if l.MaxOutDegree() != 3 {
		t.Errorf("max out-degree %d, want 3", l.MaxOutDegree())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range neighbor did not panic")
		}
	}()
	NewLinks(2, [][]ProcessID{{2}})
}

func TestParseTopology(t *testing.T) {
	ok := []struct {
		spec  string
		n     int
		full  bool
		links int
	}{
		{"full", 9, true, 0},
		{"ring", 9, false, 9},
		{"torus", 9, false, 9 * 4},
		{"torus/3x3", 9, false, 9 * 4},
		{"regular/2", 9, false, 9 * 2},
		{"scalefree/1", 9, false, 2 * 8},
		{"islands/3", 9, false, 9 * 2},
		// An attachment count beyond n-1 attaches each node to every
		// earlier one: the complete graph on 4 nodes.
		{"scalefree/9223372036854775807", 4, false, 4 * 3},
	}
	for _, tc := range ok {
		topo, err := ParseTopology(tc.spec, tc.n, 1)
		if err != nil {
			t.Errorf("ParseTopology(%q, %d): %v", tc.spec, tc.n, err)
			continue
		}
		if tc.full {
			if topo != nil {
				t.Errorf("ParseTopology(%q) = %v, want nil (fully connected)", tc.spec, topo)
			}
			continue
		}
		if topo == nil {
			t.Errorf("ParseTopology(%q) = nil, want sparse links", tc.spec)
			continue
		}
		if topo.NumLinks() != tc.links {
			t.Errorf("ParseTopology(%q, %d): %d links, want %d", tc.spec, tc.n, topo.NumLinks(), tc.links)
		}
	}
	bad := []struct {
		spec string
		n    int
	}{
		{"", 4}, {"full/x", 4}, {"ring/3", 4}, {"torus/2x3", 4}, {"torus/ab", 4},
		{"regular/4", 4}, {"regular/x", 4}, {"scalefree/0", 4},
		{"islands/5", 4}, {"islands/0", 4}, {"mesh", 4}, {"ring", 0},
		// rows·cols wraps around to n without the per-dimension bound.
		{"torus/4611686018427387905x4", 4}, {"torus/4x4611686018427387905", 4},
	}
	for _, tc := range bad {
		if _, err := ParseTopology(tc.spec, tc.n, 1); err == nil {
			t.Errorf("ParseTopology(%q, %d) accepted", tc.spec, tc.n)
		}
	}
}

// TestBroadcastSelfDeliveryUnconditional pins the semantics decision for
// the self-delivery bug: a topology without the link p → p must not
// suppress the broadcast's self-copy (Algorithm 1 assumes unconditional
// self-delivery; a topology describes network links, and reaching oneself
// needs none), and one with that link must not duplicate it.
func TestBroadcastSelfDeliveryUnconditional(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *Links
	}{
		{"links", NewLinks(3, nil)}, // no links at all
		{"self-loops", NewLinks(3, [][]ProcessID{{0}, {1}, {2}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv := make([]int, 3)
			_, err := Run(Config{
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
				Topology: tc.topo,
				Delays:   ConstantDelay{D: rat.One},
			})
			if err != nil {
				t.Fatal(err)
			}
			for p, n := range recv {
				if n != 1 {
					t.Errorf("process %d received %d self-copies, want 1", p, n)
				}
			}
		})
	}
}

// TestSendToSelfAlwaysAllowed: Env.Send(self) is legal under any topology,
// matching the unconditional self-delivery of Broadcast.
func TestSendToSelfAlwaysAllowed(t *testing.T) {
	got := 0
	_, err := Run(Config{
		N: 2,
		Spawn: func(p ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if _, ok := msg.Payload.(Wakeup); ok {
					env.Send(env.Self(), "note-to-self")
				} else if env.Self() == 0 {
					got++
				}
			})
		},
		Topology: NewLinks(2, nil),
		Delays:   ConstantDelay{D: rat.One},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("process 0 received %d self-sends, want 1", got)
	}
}

// TestIslandsTrafficStaysInPartition pins the disconnected-graph behavior:
// messages never cross a partition, each island quiesces independently.
func TestIslandsTrafficStaysInPartition(t *testing.T) {
	const n, k = 7, 3
	res, err := Run(Config{
		N:        n,
		Spawn:    broadcastSpawn(3),
		Topology: Islands(n, k),
		Delays:   UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("disconnected run did not quiesce")
	}
	for _, m := range res.Trace.Msgs {
		if m.IsWakeup() {
			continue
		}
		if m.From != m.To && IslandOf(n, k, m.From) != IslandOf(n, k, m.To) {
			t.Errorf("message %d -> %d crosses partitions", m.From, m.To)
		}
	}
}

func TestScriptedSendValidation(t *testing.T) {
	base := func() Config {
		return Config{
			N:        3,
			Spawn:    broadcastSpawn(1),
			Topology: Ring(3),
			Delays:   ConstantDelay{D: rat.One},
		}
	}
	for _, tc := range []struct {
		name    string
		to      ProcessID
		at      rat.Rat
		wantErr string
	}{
		{"out-of-range", 3, rat.One, "invalid process"},
		{"cross-link", 0, rat.One, "non-existent link"}, // ring has 1 -> 2 only
		{"negative-time", 2, rat.FromInt(-1), "negative time"},
		{"legal-link", 2, rat.One, ""},
		{"self", 1, rat.One, ""}, // self-sends always legal
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			cfg.Faults = map[ProcessID]Fault{1: {CrashAfter: NeverCrash, Script: []ScriptedSend{
				{At: tc.at, To: tc.to, Payload: "forged"},
			}}}
			_, err := Run(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("legal scripted send rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopologySizeMismatchRejected(t *testing.T) {
	cfg := Config{
		N:        4,
		Spawn:    broadcastSpawn(1),
		Topology: Ring(5),
		Delays:   ConstantDelay{D: rat.One},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("Links over 5 processes accepted for N=4")
	}
}

// TestEngineReuseAcrossQueueKinds: one pooled Engine cycling through
// N=10 (a 1024-bucket wheel), N=5000 (4096 buckets) and N=4095 and 4096
// (2048 buckets each), so the wheel shrinks, grows and stays between runs,
// stays hermetic — every run matches a fresh engine's trace.
func TestEngineReuseAcrossQueueKinds(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		n := []int{10, 5000, 4095, 4096}[i%4]
		cfg := Config{
			N: n, Spawn: broadcastSpawn(3),
			Topology: Ring(n),
			Delays:   UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Seed:     9,
		}
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if h, want := res.Trace.Hash(), fresh.Trace.Hash(); h != want {
			t.Fatalf("run %d (N=%d): pooled hash %016x, fresh %016x", i, n, h, want)
		}
	}
}
