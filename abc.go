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
// This package is the public façade over the implementation packages:
//
//   - simulation of asynchronous message-driven systems with crash and
//     Byzantine fault injection (Simulate, Config, Process);
//   - execution graphs, consistent cuts and causal cones (BuildGraph,
//     Graph, Cut);
//   - the ABC admissibility checker with exact certificates: a violating
//     relevant cycle or a normalized delay assignment per Theorem 7
//     (Check, MaxRelevantRatio);
//   - Algorithm 1 (Byzantine clock sync) and Algorithm 2 (lock-step
//     rounds) with monitors for Theorems 1–5;
//   - consensus (EIG, Phase-King, FloodSet) on top of lock-step rounds;
//   - the Θ-Model and ParSync comparisons of Sections 4–5, the weaker
//     variants of Section 6, failure detectors, FIFO channels, and the
//     VLSI clock-generation domain of Section 5.3.
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
	"repro/internal/cycles"
	"repro/internal/detector"
	"repro/internal/fifo"
	"repro/internal/lockstep"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/theta"
	"repro/internal/variants"
	"repro/internal/vlsi"
)

// Exact rational arithmetic (Ξ, times, delays).
type Rat = rat.Rat

// Rational constructors.
var (
	NewRat   = rat.New
	RatInt   = rat.FromInt
	ParseRat = rat.Parse
	MustRat  = rat.MustParse
)

// Model is the ABC model with a known, perpetually holding Ξ.
type Model = core.Model

// Model constructors and resilience helpers.
var (
	NewModel     = core.NewModel
	MustModel    = core.MustModel
	MinProcesses = core.MinProcesses
	MaxFaults    = core.MaxFaults
)

// Simulation types (internal/sim).
type (
	// Config describes one simulation run.
	Config = sim.Config
	// Process is a message-driven state machine.
	Process = sim.Process
	// ProcessFunc adapts a function to Process.
	ProcessFunc = sim.ProcessFunc
	// Env is the step interface handed to processes.
	Env = sim.Env
	// Message is a point-to-point message.
	Message = sim.Message
	// ProcessID identifies a process.
	ProcessID = sim.ProcessID
	// Trace records a finished execution.
	Trace = sim.Trace
	// TraceBuilder constructs traces by hand.
	TraceBuilder = sim.TraceBuilder
	// Fault configures crash or Byzantine behavior.
	Fault = sim.Fault
	// Wakeup is the external payload triggering first steps.
	Wakeup = sim.Wakeup
	// DelayPolicy assigns message delays.
	DelayPolicy = sim.DelayPolicy
	// ConstantDelay, UniformDelay, GrowingDelay, PerLinkDelay and
	// OverrideDelay are the built-in delay policies.
	ConstantDelay = sim.ConstantDelay
	UniformDelay  = sim.UniformDelay
	GrowingDelay  = sim.GrowingDelay
	PerLinkDelay  = sim.PerLinkDelay
	OverrideDelay = sim.OverrideDelay
	// Link is a directed process pair (for PerLinkDelay).
	Link = sim.Link
)

// Simulation entry points and fault constructors.
var (
	Simulate        = sim.Run
	NewTraceBuilder = sim.NewTraceBuilder
	Crash           = sim.Crash
	Silent          = sim.Silent
	ByzantineFault  = sim.ByzantineFault
)

// Causality types (internal/causality).
type (
	// Graph is the execution graph G_α of Definition 1.
	Graph = causality.Graph
	// GraphOptions configures graph construction.
	GraphOptions = causality.Options
	// Cut is a set of events; consistent cuts per Definition 5.
	Cut = causality.Cut
	// NodeID and EdgeID index the graph.
	NodeID = causality.NodeID
	EdgeID = causality.EdgeID
)

// BuildGraph constructs the execution graph of a trace.
func BuildGraph(t *Trace) *Graph { return causality.Build(t, causality.Options{}) }

// Cycle machinery (internal/cycles).
type (
	// Cycle is a simple cycle of the shadow graph.
	Cycle = cycles.Cycle
	// CycleClass is the Definition 3 classification.
	CycleClass = cycles.Class
)

// Cycle helpers.
var (
	EnumerateCycles = cycles.Enumerate
	ClassifyCycle   = cycles.Classify
)

// Checker types (internal/check).
type (
	// Verdict is an admissibility check outcome with certificates.
	Verdict = check.Verdict
	// Assignment is a Theorem 7 normalized delay assignment.
	Assignment = check.Assignment
)

// Checker entry points.
var (
	// Check decides ABC admissibility (Definition 4) in O(V·E).
	Check = check.ABC
	// CheckExhaustive is the enumeration-based oracle.
	CheckExhaustive = check.Exhaustive
	// MaxRelevantRatio computes the exact critical ratio.
	MaxRelevantRatio = check.MaxRelevantRatio
	// Constrained reports whether any Ξ > 1 can be violated.
	Constrained = check.Constrained
)

// Clock synchronization (Algorithm 1).
type (
	// ClockSync is an Algorithm 1 process.
	ClockSync = clocksync.Proc
	// TickMessage is Algorithm 1's message payload.
	TickMessage = clocksync.Tick
	// ClockNote is the per-event annotation used by monitors.
	ClockNote = clocksync.Note
)

// Clock synchronization constructors and Theorem 1–4 monitors.
var (
	NewClockSync              = clocksync.New
	ClockSyncSpawner          = clocksync.Spawner
	ClocksReached             = clocksync.AllReached
	CheckProgress             = clocksync.CheckProgress
	CheckMonotone             = clocksync.CheckMonotone
	CheckRealTimePrecision    = clocksync.CheckRealTimePrecision
	CheckCausalCone           = clocksync.CheckCausalCone
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
	NewLockStep     = lockstep.New
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

// Consensus constructors.
var (
	NewEIG          = consensus.NewEIG
	NewPhaseKing    = consensus.NewPhaseKing
	NewFloodSet     = consensus.NewFloodSet
	EIGRounds       = consensus.EIGRounds
	PhaseKingRounds = consensus.PhaseKingRounds
	FloodSetRounds  = consensus.FloodSetRounds
)

// Θ-Model checks (Section 4).
var (
	CheckThetaStatic  = theta.CheckStatic
	CheckThetaDynamic = theta.CheckDynamic
)

// ThetaReport is the result of a Θ-Model check.
type ThetaReport = theta.Report

// XiLearner estimates an unknown Ξ online (?ABC, Section 6).
type XiLearner = variants.XiLearner

// Variant helpers.
var (
	NewXiLearner     = variants.NewXiLearner
	FindGST          = variants.FindGST
	DoublingBoundary = variants.DoublingBoundary
)

// Failure detection (Fig. 3 and Section 6).
type (
	// FailureMonitor is the Fig. 3 one-shot perfect detector.
	FailureMonitor = detector.Monitor
	// Responder answers detector queries and pings.
	Responder = detector.Responder
	// OmegaCore and OmegaFollower implement the Section 6 Ω sketch.
	OmegaCore     = detector.OmegaCore
	OmegaFollower = detector.OmegaFollower
)

// TimeoutChainLen returns ⌈2Ξ⌉, the Fig. 3 timeout chain length.
var TimeoutChainLen = detector.ChainLen

// FIFO channels over non-FIFO links (Fig. 10).
type (
	// FIFOSender, FIFOHelper, FIFOReceiver implement the Fig. 10 pattern.
	FIFOSender   = fifo.Sender
	FIFOHelper   = fifo.Helper
	FIFOReceiver = fifo.Receiver
	// FIFOItem is a data message.
	FIFOItem = fifo.Item
)

// FIFOMinChainLen returns the minimal inter-send chain length for Ξ.
var FIFOMinChainLen = fifo.MinChainLen

// VLSI Systems-on-Chip (Section 5.3).
type (
	// Chip is a placed-and-routed module system.
	Chip = vlsi.Chip
	// ClockGenReport summarizes a DARTS-style clock generation run.
	ClockGenReport = vlsi.ClockGenReport
)

// VLSI helpers.
var (
	NewChip            = vlsi.NewChip
	RunClockGeneration = vlsi.RunClockGeneration
)
