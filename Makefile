GO ?= go

# Headline benchmarks guarded per-PR: the exact-arithmetic substrate and
# its heaviest consumers. Keep in sync with .github/workflows/ci.yml.
# BenchmarkSimulator's N=100k sparse cases are excluded from the smoke
# (seconds per iteration); bench-json records the full grid.
BENCH_SMOKE = BenchmarkChecker|BenchmarkMaxRelevantRatio|BenchmarkIncrementalChecker
BENCH_SIM_SMOKE = BenchmarkSimulator/.*/^n=(8|100|10000)$$

# Benchmarks recorded into $(BENCH_OUT) by bench-json: the smoke set, the
# simulator topology grid up to N=100k, and graph construction. The N=10^6
# ring is seconds per iteration, so bench-json runs it in a second,
# shorter invocation and concatenates both streams into one benchjson
# document (whose host block records cores and GOMAXPROCS).
BENCH_JSON_MAIN = $(BENCH_SMOKE)|BenchmarkGraphBuild|BenchmarkSimulator/.*/^n=(8|100|10000|100000)$$
BENCH_JSON_SCALE = BenchmarkSimulator/topo=ring/^n=1000000$$

# Per-PR benchmark record; earlier PRs' files stay in the repository so
# the trajectory can be diffed.
BENCH_OUT ?= BENCH_pr10.json

.PHONY: all build vet test race bench bench-smoke bench-json fuzz-smoke fleet-ci fleet-bench incremental-ci workloads-ci topology-ci protocols-ci faults-ci scale-ci cover ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the full paper evaluation (cmd/abcbench). CPUPROFILE= and
# MEMPROFILE= pass pprof output paths through, so engine regressions can
# be chased with real experiment traffic: `make bench CPUPROFILE=cpu.out`.
bench:
	$(GO) run ./cmd/abcbench $(if $(CPUPROFILE),-cpuprofile $(CPUPROFILE)) $(if $(MEMPROFILE),-memprofile $(MEMPROFILE))

# bench-smoke runs the three headline benchmarks briefly — enough to catch
# order-of-magnitude regressions in the arithmetic layer, not to replace a
# real benchstat comparison.
bench-smoke:
	$(GO) test -run=NONE -bench='$(BENCH_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='$(BENCH_SIM_SMOKE)' -benchmem -benchtime=10x .

# bench-json records the perf trajectory: the headline benchmarks are
# rendered to $(BENCH_OUT) (via cmd/benchjson) so per-PR numbers live
# in the repository and can be diffed, not just quoted in CHANGES.md.
bench-json:
	( $(GO) test -run=NONE -bench='$(BENCH_JSON_MAIN)' -benchmem -benchtime=20x . && \
	  $(GO) test -run=NONE -bench='$(BENCH_JSON_SCALE)' -benchmem -benchtime=3x -timeout 30m . ) \
	  | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# fuzz-smoke gives each differential fuzz target a short budget; the seed
# corpus already pins the int64 overflow boundary, so even 10s runs cross
# the promotion/demotion paths.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzArith -fuzztime=10s ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParseFaults -fuzztime=10s ./internal/workload

# fleet-ci mirrors the CI "fleet" job: the golden-trace determinism and
# engine-hermeticity suites under the race detector with shuffled test
# order, the fleet-vs-serial evaluation equivalence, and coverage for the
# runner and sim packages.
fleet-ci:
	$(GO) test -race -shuffle=on -run 'Fleet|Engine|Map|Grid|Stream|Run' ./internal/runner ./internal/sim
	$(GO) test -race -run 'TestRunAllWidthIndependent' ./internal/experiments
	$(GO) test -cover -coverprofile=cover.out ./internal/runner ./internal/sim
	$(GO) tool cover -func=cover.out

# fleet-bench records the serial vs 8-worker wall-clock of the full E1–E16
# evaluation through the runner (needs >= 8 hardware threads to show the
# speedup; see DESIGN.md decision 5).
fleet-bench:
	$(GO) test -run=NONE -bench='BenchmarkFleetExperiments' -benchtime=3x .

# incremental-ci mirrors the CI "incremental" job: the ≥10k-schedule
# incremental-vs-batch differential grid and the watch-mode suites under
# the race detector, plus a bench smoke of the append-batch workload.
incremental-ci:
	$(GO) test -race -run 'Incremental|Watch|Monitor|Builder|IsDAG|BellmanFordFrom|Plan' ./internal/check ./internal/causality ./internal/sim ./internal/runner ./internal/graphutil
	$(GO) test -run=NONE -bench='BenchmarkIncrementalChecker' -benchmem -benchtime=10x .

# workloads-ci mirrors the CI "workloads" job: the registry-wide
# conformance suite (parameter hygiene, fleet==serial determinism,
# verdict agreement with the batch checker, watch invisibility) under the
# race detector with shuffled test order, the registry mechanics and CLI
# suites, the E18 cross-workload matrix, and the example smoke tests.
workloads-ci:
	$(GO) test -race -shuffle=on ./internal/workload/... ./cmd/abcsim
	$(GO) test -race -run 'TestRunAllWidthIndependent' ./internal/experiments
	$(GO) test -run=NONE -bench='BenchmarkE18_CrossWorkload' -benchtime=1x .
	$(GO) test ./examples/...

# topology-ci mirrors the CI "topology" job: the sparse-topology suites —
# generator structure, ParseTopology, broadcast/self-delivery semantics,
# scripted-send validation, heap-vs-calendar queue differential, key
# collisions, and the fleet==serial sparse conformance cases — under the
# race detector with shuffled order, plus a bench smoke at N=10k ring so
# fan-out regressions fail fast.
topology-ci:
	$(GO) test -race -shuffle=on -run 'Topo|Sparse|Queue|Broadcast|Island|Script|PointKey|Ring|Torus|Regular|ScaleFree|Links' ./internal/sim ./internal/runner ./internal/workload/...
	$(GO) test -run=NONE -bench='BenchmarkSimulator/topo=ring/^n=10000$$' -benchmem -benchtime=10x .

# protocols-ci mirrors the CI "protocols" job: the consensus and Ω
# domain suites and the protocol/fault-axis conformance cases (fault
# grids, failing-verdict CheckErr determinism) under the race detector
# with shuffled order, plus two CLI smokes driving the headline grids end
# to end — a crash-at-step sweep and a Byzantine-budget grid.
protocols-ci:
	$(GO) test -race -shuffle=on ./internal/consensus ./internal/detector
	$(GO) test -race -shuffle=on -run 'Protocol|Conformance|Fault' ./internal/workload/...
	$(GO) run ./cmd/abcsim -workload consensus -param algo=floodset -sweep faults=none,crash/1@0,crash/1@2 -runs 2
	$(GO) run ./cmd/abcsim -workload clocksync -sweep faults=byz/1@20,byz/1@60 -runs 2

# faults-ci mirrors the CI "faults" job: the crash-recovery and
# lossy-network fault-plane suites (engine down/up + net-fault
# semantics, grammar resolution, Ω re-election, registry fault cases,
# retention equivalence under message faults) under the race detector
# with shuffled order, plus two CLI smokes driving a recovery sweep and
# a partition sweep end to end.
faults-ci:
	$(GO) test -race -shuffle=on -run 'Fault|Recover|Partition|NetFault|Omega|WindowWatch' ./internal/sim ./internal/detector ./internal/workload/...
	$(GO) run ./cmd/abcsim -workload broadcast -sweep faults=none,recover/1@2..4,partition/halves@2..5 -runs 2
	$(GO) run ./cmd/abcsim -workload omega -param faults=recover/p0@4..12 -runs 2

# scale-ci mirrors the CI "scale" job: the trace-retention and
# sink-equivalence suites (engine-level retention equivalence, the
# registry-wide full/window/none digest agreement, window-watch vs batch
# first-violation parity, and the retention policy layer) under the race
# detector with shuffled order, then a single N=10^6 RetainNone ring
# iteration as a wall-clock smoke — the time budget catches throughput
# collapses at the PR 8 scale target, benchstat catches drift.
scale-ci:
	$(GO) test -race -shuffle=on -run 'Sink|Retention|WindowWatch|EventsOf' ./internal/sim ./internal/workload/...
	$(GO) test -run=NONE -bench='$(BENCH_JSON_SCALE)' -benchmem -benchtime=1x -timeout 15m .

cover:
	$(GO) test -cover ./internal/runner ./internal/sim

ci: vet race bench-smoke fleet-ci incremental-ci workloads-ci topology-ci protocols-ci faults-ci scale-ci
