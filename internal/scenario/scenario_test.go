package scenario

import (
	"testing"

	"repro/internal/causality"
)

func TestFig1Shape(t *testing.T) {
	fig := BuildFig1()
	if err := fig.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if fig.Trace.N != 9 {
		t.Errorf("N = %d, want 9", fig.Trace.N)
	}
	if fig.Graph.MessageCount() != 9 {
		t.Errorf("messages = %d, want 9 (m1..m9)", fig.Graph.MessageCount())
	}
	// ψ1 happens before ψ2 at p.
	if !fig.Graph.LeftClosure(fig.Psi2).Contains(fig.Psi1) {
		t.Error("ψ1 must precede ψ2")
	}
	// The zero-delay message m3 exists.
	zero := false
	for _, m := range fig.Trace.Msgs {
		if s, ok := m.Payload.(string); ok && s == "m3" && m.RecvTime.Equal(m.SendTime) {
			zero = true
		}
	}
	if !zero {
		t.Error("m3 is not zero-delay")
	}
}

func TestFig2Shape(t *testing.T) {
	fig := BuildFig2()
	if err := fig.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 4 || len(fig.Y) != 4 {
		t.Fatalf("X/Y have %d/%d edges, want 4/4", len(fig.X), len(fig.Y))
	}
	// e is the only edge shared by X and Y.
	shared := 0
	for _, ex := range fig.X {
		for _, ey := range fig.Y {
			if ex == ey {
				shared++
				if ex != fig.E {
					t.Errorf("unexpected shared edge %d", ex)
				}
			}
		}
	}
	if shared != 1 {
		t.Errorf("X and Y share %d edges, want 1", shared)
	}
	if fig.Graph.Edge(fig.E).Kind != causality.Message {
		t.Error("e is not a message edge")
	}
}

func TestFig3Fig4Divergence(t *testing.T) {
	f3, f4 := BuildFig3(), BuildFig4()
	if err := f3.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := f4.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same number of messages, different local order at p.
	if f3.Graph.MessageCount() != f4.Graph.MessageCount() {
		t.Errorf("message counts differ: %d vs %d",
			f3.Graph.MessageCount(), f4.Graph.MessageCount())
	}
	// Fig 3: ψ before the reply. Fig 4: reply (φ) before ψ.
	if !f3.Graph.LeftClosure(f3.PhiReply).Contains(f3.Psi) {
		t.Error("Fig.3: ψ must precede the reply")
	}
	if !f4.Graph.LeftClosure(f4.Psi).Contains(f4.Phi) {
		t.Error("Fig.4: φ must precede ψ")
	}
	// The triggering payloads of ψ match ("pong2" closes the chain).
	psiEv := f3.Trace.Events[f3.Psi]
	if pl := f3.Trace.Msgs[psiEv.Trigger].Payload; pl != "pong2" {
		t.Errorf("Fig.3 ψ triggered by %v, want pong2", pl)
	}
}
