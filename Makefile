GO ?= go

# Headline benchmarks guarded per-PR: the exact-arithmetic substrate and
# its heaviest consumers — the admissibility checker, the critical-ratio
# search, the incremental checker, the Theorem 2 cut check and the
# Theorem 4 bounded-progress check on a long clocksync graph — plus
# Algorithm 1 at two run lengths (flat ns/event), execution-graph
# construction (constant allocs/op) and the delivery queue (B/op: the
# queue's in-flight working set). Keep in sync with
# .github/workflows/ci.yml.
# BenchmarkSimulator's N=100k sparse cases are excluded from the smoke
# (seconds per iteration). These are regression gates only; the
# performance ledger is bench/run.sh (BENCHMARK.json).
BENCH_SMOKE = BenchmarkChecker|BenchmarkMaxRelevantRatio|BenchmarkIncrementalChecker|BenchmarkCutSynchrony|BenchmarkBoundedProgress|BenchmarkClockSyncScale|BenchmarkGraphBuild
BENCH_SIM_SMOKE = BenchmarkSimulator/.*/^n=(8|100|10000)$$
BENCH_QUEUE_SMOKE = BenchmarkDeliveryQueue
# The N=10^6 ring is seconds per iteration, so bench-smoke runs it alone,
# once, under a hard time budget.
BENCH_SIM_SCALE = BenchmarkSimulator/topo=ring/^n=1000000$$

.PHONY: all build vet fmt test test-386 race bench bench-smoke fuzz-smoke fleet-bench cover cli-smoke bench-module ci

all: build

build:
	$(GO) build ./...

# vet also type-checks every package and test for a 32-bit target, where
# int is 32 bits and a constant that only fits int64 fails to compile.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

# fmt fails when gofmt would reformat any Go file; the walk from the root
# covers the bench/ module too.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# test-386 runs the simulator's tests for a 32-bit target, where int is 32
# bits: spec parsing must accept and reject the same values as on 64-bit
# platforms, and the delivery record is 20 B. (About 45 s with the build
# on 2 vCPUs.)
test-386:
	GOARCH=386 $(GO) test ./internal/sim

# race runs every test under the race detector in shuffled order; the
# determinism, conformance, differential and fault-plane suites all live
# in ./..., so no regex subset needs a second run.
race:
	$(GO) test -race -shuffle=on ./...

# bench runs the full paper evaluation (cmd/abcbench). CPUPROFILE= and
# MEMPROFILE= pass pprof output paths through, so engine regressions can
# be chased with real experiment traffic: `make bench CPUPROFILE=cpu.out`.
bench:
	$(GO) run ./cmd/abcbench $(if $(CPUPROFILE),-cpuprofile $(CPUPROFILE)) $(if $(MEMPROFILE),-memprofile $(MEMPROFILE))

# bench-smoke runs the headline benchmarks, the simulator grid, the
# delivery queue's two rows (once each, about 5 s on 2 vCPU), the
# fleet evaluation (fleet-bench) and the E18 cross-workload matrix
# briefly — enough to catch order-of-magnitude regressions, not to
# replace a real benchstat comparison — then one N=10^6 RetainNone ring
# iteration, whose hard time budget catches throughput collapses at the
# scale target.
bench-smoke: fleet-bench
	$(GO) test -run=NONE -bench='$(BENCH_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='$(BENCH_SIM_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='$(BENCH_QUEUE_SMOKE)' -benchmem -benchtime=1x ./internal/sim
	$(GO) test -run=NONE -bench='BenchmarkE18_CrossWorkload' -benchtime=1x .
	$(GO) test -run=NONE -bench='$(BENCH_SIM_SCALE)' -benchmem -benchtime=1x -timeout 15m .

# fuzz-smoke gives each fuzz target a short budget (FUZZTIME): the rat
# differentials, whose seed corpus already pins the int64 overflow
# boundary, so even 10s runs cross the promotion/demotion paths; the
# fault grammar; the topology grammar; the engine configuration
# (topology, delays, faults, retention and MaxEvents over system sizes
# that span the delivery queue's three smallest wheels, with message
# conservation checked on every run); the JSON trace reader behind
# abccheck; and every String parameter of every registered workload
# through Resolve and Jobs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzArith -fuzztime=$(FUZZTIME) ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParseFaults -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzParseTopology -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzEngineConfig -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./cmd/abccheck
	$(GO) test -run=NONE -fuzz=FuzzResolveJobs -fuzztime=$(FUZZTIME) ./internal/workload/all

# fleet-bench records the wall-clock of the full E1–E18 evaluation through
# the runner at one worker and at eight (DESIGN.md decision 5 has the
# measured numbers; the 8-worker row only beats the serial one with more
# than one hardware thread).
fleet-bench:
	$(GO) test -run=NONE -bench='BenchmarkFleetExperiments' -benchtime=3x .

# cli-smoke drives abcsim end to end over the headline fault grids: a
# crash-at-step sweep, a Byzantine-budget grid, a recovery and partition
# sweep, Ω leader recovery, Ω on a 4000-process ring (core overlay plus
# relayed flooding), VLSI technology migration with a dead module, a
# watched 64-process full mesh (deep causal chains through the
# incremental checker over a sliding window), the critical ratio of a
# 6.1·10^4-event ring broadcast (past where a graph-size strictness scale
# overflowed int64), a dense inadmissible ratio search (critical ratio 3
# on a 64-process mesh at Ξ = 3/2), the same ring's critical ratio found
# by a watched run's end-of-run search on the watcher's own constraint
# store, a -dot export of a scenario run compared with the golden file of
# cmd/abcsim, and an abcsim → abccheck round trip: a seeded clock-sync
# trace written to a temp file and read back through every abccheck
# analysis (ABC, Θ-Model, ParSync, ◇ABC stabilization).
cli-smoke:
	$(GO) run ./cmd/abcsim -workload consensus -param algo=floodset -sweep faults=none,crash/1@0,crash/1@2 -runs 2
	$(GO) run ./cmd/abcsim -workload clocksync -sweep faults=byz/1@20,byz/1@60 -runs 2
	$(GO) run ./cmd/abcsim -workload broadcast -sweep faults=none,recover/1@2..4,partition/halves@2..5 -runs 2
	$(GO) run ./cmd/abcsim -workload omega -param faults=recover/p0@4..12 -runs 2
	$(GO) run ./cmd/abcsim -workload omega -param n=4000 -param topology=ring
	$(GO) run ./cmd/abcsim -workload vlsi -sweep scale=1,1/3 -param faults=crash/1 -runs 2
	$(GO) run ./cmd/abcsim -workload broadcast -param n=64 -param target=20 -param trace=window/4096 -watch
	$(GO) run ./cmd/abcsim -workload broadcast -param n=1000 -param topology=ring -param target=30
	$(GO) run ./cmd/abcsim -workload broadcast -param n=64 -param target=10 -param max=10 -param xi=3/2
	$(GO) run ./cmd/abcsim -workload broadcast -param n=1000 -param topology=ring -param target=30 -param trace=window/4096 -watch | grep -q 'critical ratio: 4/3'
	tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/abcsim -workload scenario -dot $$tmp && \
	cmp $$tmp cmd/abcsim/testdata/scenario.dot
	tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/abcsim -workload clocksync -param n=4 -param f=1 -param xi=2 -param target=10 -seed 1 -trace $$tmp && \
	$(GO) run ./cmd/abccheck -xi 2 -theta 3 -phi 3 -delta 3 -gst $$tmp

# bench-module vets and tests the benchmark harness, a separate module
# (bench/go.mod) that ./... does not reach, so an API change that breaks
# the harness fails here instead of in the benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cover reports runner, sim, causality and workload coverage per function.
cover:
	$(GO) test -cover -coverprofile=cover.out ./internal/runner ./internal/sim ./internal/causality ./internal/workload
	$(GO) tool cover -func=cover.out

# ci runs the steps of the single CI job (.github/workflows/ci.yml), which
# calls these targets one by one.
ci: vet fmt test-386 race cover fuzz-smoke bench-smoke cli-smoke bench-module
