# Convenience targets for the reproduction. Everything is pure-stdlib Go;
# no external dependencies.

GO ?= go

# The MPI runtime benchmarks whose allocation profile the zero-copy data
# path guards (EXPERIMENTS.md records their baselines).
MPI_BENCHES = BenchmarkModule1_PingPong|BenchmarkAblation_Transports|BenchmarkAblation_AllreduceAlgorithms|BenchmarkAblation_EagerVsRendezvous

# The one-sided (RMA) microbenchmarks: Put/Get latency across the eager
# boundary, the amortized cost of batched Puts, fence-vs-lock epoch
# cost, and the RMA-vs-two-sided hash-join build (EXPERIMENTS.md records
# their baselines in BENCH_rma.json).
RMA_BENCHES = BenchmarkRMA_PutLatency|BenchmarkRMA_BatchedPut|BenchmarkRMA_GetLatency|BenchmarkRMA_EpochSync|BenchmarkRMA_HashJoinBuild

# The nonblocking-collective / DDP overlap benchmarks: the emulated
# interconnect training study (overlapped vs sequential flush schedule,
# ZeRO-1, raw-loopback baselines) and the Iallreduce payload sweep
# (EXPERIMENTS.md records their baselines in BENCH_ddp.json).
DDP_BENCHES = BenchmarkDDP_Step|BenchmarkIallreduce

# The event-core benchmarks: the heap engine at 10k/100k/1M generated
# jobs against the seed's linear-scan baseline at 10k/100k (EXPERIMENTS.md
# records the events/sec ratio in BENCH_cluster.json), plus a saturated
# backfill drain where the policy scan dominates. The linear 100k
# point is O(n²) by construction and takes minutes — that slowness is
# the measurement.
CLUSTER_BENCHES = BenchmarkClusterDrain|BenchmarkClusterDrainLinear|BenchmarkClusterSchedule

# The chaos soak's seed sweep. `make chaos` defaults to a wider fixed
# sweep than the in-tree default ({1,2}); override with
# CHAOS_SEEDS=5,6,7 make chaos.
CHAOS_SEEDS ?= 1,2,3,4,5,6,7,8,9,10,11,12

.PHONY: all build test race bench bench-all check chaos faults fuzz report examples metrics-demo clean

all: build test

# The full static + dynamic gate: vet, the race-enabled test suite, a
# flake gate over the modules and the activity registry (repeated,
# shuffled, at 1, 2 and 4 cores), the allocation-regression tests, the
# fault-tolerance matrix, the chaos soak, a one-iteration bench smoke of
# the MPI benchmarks under the race detector, and the repo benchmark's
# own tests (perfbench is a separate module, so the root `go test ./...`
# skips it).
check: faults chaos
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -count=3 -shuffle=on -cpu=1,2,4 ./internal/modules/... ./internal/core
	$(GO) test -race -run 'TestAlloc' ./internal/mpi
	$(GO) test -race -run 'TestRMA' ./internal/mpi
	$(GO) test -race -run 'TestJoinRMA|TestTableMatchesMap|TestAllocJoinKernel' ./internal/modules/hashjoin
	$(GO) test -race -run 'TestIcollEventParity|TestFaultIallreduceKill|TestIcollDeadlockDetected|TestLinkLatency' ./internal/mpi
	$(GO) test -race -run 'TestOverlapBitIdentical|TestZero1BitIdenticalWithDDP|TestAllocDDPBucketFlush|TestBlockedKernelsMatchScalar' ./internal/modules/ddp
	$(GO) test -run 'TestAlloc|TestEvent' ./internal/telemetry
	$(GO) test -race -run 'TestMetricsEndpointsLive|TestTransportCounterParity|TestLossyLinkCounterParity|TestGatherMerged' ./internal/telemetry
	$(GO) test -race -run NONE -bench '$(MPI_BENCHES)' -benchtime=1x .
	$(GO) test -race -run NONE -bench '$(RMA_BENCHES)' -benchtime=1x .
	$(GO) test -race -run NONE -bench '$(DDP_BENCHES)' -benchtime=1x .
	$(GO) test -race -run 'TestHeapVsLinear|TestRunUntilSinglePop|TestAllocSchedulePass|FuzzWorkloadSpec' ./internal/cluster ./internal/workload
	$(GO) test -run 'TestHelpGolden' ./cmd/sbatch ./cmd/modulerun
	cd perfbench && $(GO) test ./...
	$(GO) run ./cmd/sbatch -workload "poisson:600/h;runtime=exp:60s;tasks=fixed:8" -njobs 100000 -nodes 4

# The chaos soak: for each seed, derive a randomized fault plan (rank
# kills × frame drop/dup/corrupt/reorder) and drive the module ×
# transport matrix through it, asserting bit-identical results on every
# surviving rank (or the one licensed typed error) with no goroutine or
# pool-buffer leaks. Fixed seeds keep the sweep reproducible.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 ./internal/chaos

# The fault-tolerance matrix: seeded deterministic injection across the
# runtime (kill/shrink/agree, frame faults, abort propagation on all
# three transports), checkpoint/restart bit-identity, and the scheduler's
# node-failure/requeue path — all under the race detector.
faults:
	$(GO) vet ./...
	$(GO) test -race -run 'TestFault|TestAgree|TestShrink|TestFrame|TestAbortPropagation|TestMultiProcessAbortPropagates|TestOpTimeout|TestWatchdogDiagnostic|TestAllocHygiene|TestRMAPutToFailedRank|TestRMALockDeadlockDetected' ./internal/mpi
	$(GO) test -race ./internal/faults ./internal/ckpt
	$(GO) test -race -run 'TestRestart|TestSortCheckpoint|TestSortRestart' ./internal/modules/kmeans ./internal/modules/distsort
	$(GO) test -race -run 'TestNodeFail|TestRequeue|TestScheduledNodeFail|TestFailNode|TestBackoff|FuzzClusterFaultOps' ./internal/cluster

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# MPI runtime benchmarks with allocation stats, converted to
# deterministic JSON (sorted names, fixed key order) so the committed
# baselines diff cleanly between runs.
bench:
	$(GO) test -run NONE -bench '$(MPI_BENCHES)' -benchmem -count=1 . | $(GO) run ./cmd/benchjson > BENCH_mpi.json
	$(GO) test -run NONE -bench '$(RMA_BENCHES)' -benchmem -count=1 . | $(GO) run ./cmd/benchjson > BENCH_rma.json
	$(GO) test -run NONE -bench '$(DDP_BENCHES)' -benchmem -count=1 . | $(GO) run ./cmd/benchjson > BENCH_ddp.json
	$(GO) test -run NONE -bench '$(CLUSTER_BENCHES)' -benchmem -count=1 -timeout 60m ./internal/cluster | $(GO) run ./cmd/benchjson > BENCH_cluster.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over every fuzz target (regression corpora always run
# under plain `make test`).
fuzz:
	$(GO) test ./internal/mpi -fuzz=FuzzParseWire -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzUnmarshalFloat64 -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzRMAFrame -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzRMABatchFrame -fuzztime=10s
	$(GO) test ./internal/mpi -fuzz=FuzzReliableFrame -fuzztime=10s
	$(GO) test ./internal/cluster -fuzz=FuzzParseScript -fuzztime=10s
	$(GO) test ./internal/cluster -fuzz=FuzzClusterFaultOps -fuzztime=10s
	$(GO) test ./internal/workload -fuzz=FuzzWorkloadSpec -fuzztime=10s
	$(GO) test ./internal/modules/distsort -fuzz=FuzzEquiDepthBoundaries -fuzztime=10s

# Regenerate every table and figure of the paper.
report:
	$(GO) run ./cmd/evalreport -all

# Live-telemetry walkthrough: a multi-rank run with per-rank /metrics +
# pprof endpoints and the Finalize-time cross-rank merge, then the
# scheduler's gauge endpoint on a demo workload.
metrics-demo:
	$(GO) run ./cmd/mpirun -np 4 -metrics-addr 127.0.0.1:0 pi
	$(GO) run ./cmd/modulerun -activity kmeans-weighted-means -metrics
	$(GO) run ./cmd/sbatch -demo backfill -metrics

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sortpipeline
	$(GO) run ./examples/wordcount
	$(GO) run ./examples/clustering
	$(GO) run ./examples/stencil
	$(GO) run ./examples/asteroids

clean:
	$(GO) clean ./...
