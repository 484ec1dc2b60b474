// Package abc is a complete Go implementation of the Asynchronous
// Bounded-Cycle (ABC) model of Robinson and Schmid (SSS'08 best paper; full
// version in Theoretical Computer Science 412, 2011).
//
// The ABC model adds a single, entirely time-free synchrony condition to
// the asynchronous message-passing model: in the space–time diagram of an
// execution, every "relevant" cycle Z must satisfy |Z−|/|Z+| < Ξ, where
// |Z−| and |Z+| count the backward and forward messages of the cycle and
// Ξ > 1 is a rational model parameter. No message delay bounds, no step
// time bounds, no system-wide constraints — yet the condition suffices to
// implement Byzantine fault-tolerant clock synchronization, lock-step
// rounds, consensus, perfect failure detection and FIFO channels.
//
// This package is the public façade over the implementation packages,
// which live under internal/ and cannot be imported from another module:
//
//   - simulation of asynchronous message-driven systems with crash and
//     Byzantine fault injection (Simulate, Config, Process);
//   - execution graphs (BuildGraph) and the ABC admissibility checker
//     with exact certificates: a violating relevant cycle or a normalized
//     delay assignment per Theorem 7 (Check), and the exact critical ratio
//     (MaxRelevantRatio);
//   - Algorithm 1 (Byzantine clock sync) with monitors for Theorems 2–4,
//     and Algorithm 2 (lock-step rounds) with the Theorem 5 monitor;
//   - EIG consensus on top of lock-step rounds, with an equivocating
//     Byzantine adversary;
//   - the static Θ-Model check of Section 4, the Fig. 3 failure detector,
//     the Fig. 10 FIFO channels, and the VLSI clock generation of
//     Section 5.3.
//
// Every exported name here is used by a program under examples/ or by a
// godoc example, or is a type a user must name to extend the model (a
// process's Env, BuildGraph's Graph); api_test.go enforces this. The rest
// of the reproduction — cycle enumeration, Phase-King and FloodSet, the Ω
// detector, the ◇ABC variants — is exercised through the workloads of
// cmd/abcsim and the experiments of cmd/abcbench.
//
// # Quickstart
//
// Run Byzantine clock synchronization among n = 4 processes (f = 1) under
// adversarial delays, verify the trace is ABC-admissible for Ξ = 2, and
// check the Theorem 3 precision bound:
//
//	model := abc.MustModel(abc.NewRat(2, 1))
//	res, g, verdict, err := model.RunVerified(abc.Config{
//		N:      4,
//		Spawn:  abc.ClockSyncSpawner(4, 1),
//		Delays: abc.UniformDelay{Min: abc.NewRat(1, 1), Max: abc.NewRat(3, 2)},
//		Until:  abc.ClocksReached(20, nil),
//	})
//	// verdict.Admissible, abc.CheckRealTimePrecision(res.Trace, model.PrecisionBound()), ...
//	_, _, _, _ = res, g, verdict, err
package abc

import (
	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/clocksync"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fifo"
	"repro/internal/lockstep"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/theta"
	"repro/internal/vlsi"
)

// Exact rational arithmetic (Ξ, times, delays).
type Rat = rat.Rat

// Rational constructors.
var (
	NewRat  = rat.New
	RatInt  = rat.FromInt
	MustRat = rat.MustParse
)

// Model is the ABC model with a known, perpetually holding Ξ.
type Model = core.Model

// MustModel returns the model for Ξ, panicking unless Ξ > 1.
var MustModel = core.MustModel

// Simulation types (internal/sim).
type (
	// Config describes one simulation run.
	Config = sim.Config
	// Process is a message-driven state machine.
	Process = sim.Process
	// Env is the step interface handed to processes.
	Env = sim.Env
	// Message is a point-to-point message.
	Message = sim.Message
	// ProcessID identifies a process.
	ProcessID = sim.ProcessID
	// Trace records a finished execution.
	Trace = sim.Trace
	// Fault configures crash or Byzantine behavior.
	Fault = sim.Fault
	// DelayPolicy assigns message delays.
	DelayPolicy = sim.DelayPolicy
	// ConstantDelay, UniformDelay, GrowingDelay and OverrideDelay are
	// built-in delay policies.
	ConstantDelay = sim.ConstantDelay
	UniformDelay  = sim.UniformDelay
	GrowingDelay  = sim.GrowingDelay
	OverrideDelay = sim.OverrideDelay
)

// Simulation entry points and fault constructors.
var (
	Simulate        = sim.Run
	NewTraceBuilder = sim.NewTraceBuilder
	Silent          = sim.Silent
	ByzantineFault  = sim.ByzantineFault
)

// Graph is the execution graph G_α of Definition 1.
type Graph = causality.Graph

// BuildGraph constructs the execution graph of a trace.
func BuildGraph(t *Trace) *Graph { return causality.Build(t, causality.Options{}) }

// Checker entry points.
var (
	// Check decides ABC admissibility (Definition 4) in O(V·E).
	Check = check.ABC
	// MaxRelevantRatio computes the exact critical ratio.
	MaxRelevantRatio = check.MaxRelevantRatio
)

// Clock synchronization (Algorithm 1) and the Theorem 2–4 monitors.
var (
	ClockSyncSpawner          = clocksync.Spawner
	ClocksReached             = clocksync.AllReached
	CheckRealTimePrecision    = clocksync.CheckRealTimePrecision
	CheckCutSynchrony         = clocksync.CheckConsistentCutSynchrony
	CheckBoundedProgress      = clocksync.CheckBoundedProgress
	ByzantineClockAdversaries = clocksync.Adversaries
)

// Lock-step rounds (Algorithm 2).
type (
	// App is a round-based application run over lock-step rounds.
	App = lockstep.App
	// LockStep is an Algorithm 2 process.
	LockStep = lockstep.Proc
)

// Lock-step constructors and the Theorem 5 monitor.
var (
	LockStepSpawner = lockstep.Spawner
	RoundsReached   = lockstep.AllReachedRound
	CheckLockStep   = lockstep.CheckLockStep
)

// Consensus over lock-step rounds.
type (
	// Decider is implemented by all consensus apps.
	Decider = consensus.Decider
	// ConsensusSpec checks agreement, validity, termination.
	ConsensusSpec = consensus.Spec
)

// EIG consensus and an equivocating Byzantine adversary against it.
var (
	NewEIG      = consensus.NewEIG
	EIGRounds   = consensus.EIGRounds
	NewTwoFaced = consensus.NewTwoFaced
	SplitEIG    = consensus.SplitEIG
)

// CheckThetaStatic is the static Θ-Model check of Section 4.
var CheckThetaStatic = theta.CheckStatic

// Failure detection (Fig. 3).
type (
	// FailureMonitor is the Fig. 3 one-shot perfect detector.
	FailureMonitor = detector.Monitor
	// Responder answers detector queries and pings.
	Responder = detector.Responder
	// DetectorReply is a target's answer to a FailureMonitor query.
	DetectorReply = detector.Reply
)

// TimeoutChainLen returns ⌈2Ξ⌉, the Fig. 3 timeout chain length.
var TimeoutChainLen = detector.ChainLen

// FIFO channels over non-FIFO links (Fig. 10).
type (
	// FIFOSender, FIFOHelper, FIFOReceiver implement the Fig. 10 pattern.
	FIFOSender   = fifo.Sender
	FIFOHelper   = fifo.Helper
	FIFOReceiver = fifo.Receiver
)

// FIFOMinChainLen returns the minimal inter-send chain length for Ξ.
var FIFOMinChainLen = fifo.MinChainLen

// VLSI Systems-on-Chip (Section 5.3).
var (
	NewChip            = vlsi.NewChip
	RunClockGeneration = vlsi.RunClockGeneration
)
