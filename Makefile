GO ?= go

.PHONY: all ci vet build test test-race test-admission test-faults test-parallel test-incidents test-crash soak bench-placement bench-obs bench-telemetry bench-introspect bench-incident bench-runtime bench-wal regress regress-placement regress-pacer baselines

all: vet build test

# Everything CI runs, in order. The race passes cover the packages with
# concurrent hot paths: the placement scope search (test-race), the
# sharded obs histograms, the pacer, and the engine with the transports
# on top of it (island workers own Conn state and its RTO timer).
ci: vet build test test-race test-admission test-faults test-parallel test-incidents test-crash regress-placement regress-pacer
	$(GO) test -race ./internal/obs/... ./internal/pacer/... ./internal/netsim/... ./internal/transport/...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checks the packages with concurrent hot paths (the parallel
# placement scope search and the netcal primitives it leans on).
test-race:
	$(GO) test -race ./internal/placement/... ./internal/netcal/...

# The admission invariant, 25 times over under the race detector: the
# seeded properties that draw fresh inputs each run — Manager against
# the test-side oracle, VerifyInvariants after every place / remove /
# fail / recover, a tenant admitted beside neighbours also admissible
# alone — and netcal's rate-capped curve rule they rest on (bounds never
# rise on removal, closed forms agree with materialized curves, no jump
# across peak = rate).
test-admission:
	$(GO) test -race -count=25 -run 'Equivalence|Churn|Monoton|Degenerate' ./internal/placement/ ./internal/netcal/

# The fault-injection and recovery suite: the injector itself (with the
# race detector — the injector shares netsim with concurrent recovery
# hooks in tests), the placement Recover/VerifyInvariants path, and the
# end-to-end ToR-failure drill.
test-faults:
	$(GO) test -race ./internal/faults/...
	$(GO) test -run 'Recover|Churn' ./internal/placement/ ./internal/transport/
	$(GO) test -run FailureDrill ./internal/experiments/

# The parallel-simulator determinism gates under the race detector:
# every equivalence test drives the island engine at worker counts
# {1, 2, 8} (and 4, for the full-summary gate) against the sequential
# simulator and requires byte-identical results. Runtime covers the
# engine self-observability plane: the busy+stall accounting property
# at workers {1,2,4,8}, probe-on determinism, probing under injected
# island faults, and the hot-pod straggler analysis. The engine-timer
# property script (TestTimerParallelMatchesClosurePerArm) runs here on
# every island at workers {1, 2, 4}, as does the paced all-to-all run
# whose per-host frame free lists must not show across islands
# (TestPacedAllToAllParallelMatchesSequential).
test-parallel:
	$(GO) test -race -run 'Parallel|GlobalEvents|CrossIsland|Runtime|SimCounters|HotPod' ./internal/netsim/ ./internal/experiments/ ./internal/faults/

# The incident-correlation suite: the correlator's clustering and
# verdict unit tests, the end-to-end proofs (ToR-death drill verdicts
# injected-fault, unpaced Fig-5 verdicts self-inflicted, paced control
# clean), and the determinism gate (incident reports byte-identical
# across worker counts) — all under the race detector.
test-incidents:
	$(GO) test -race ./internal/obs/incident/
	$(GO) test -race -run 'Incident|Fig5Paced|ParallelScaleEquivalence' ./internal/experiments/

# The durable control-plane crash suite under the race detector: the
# crash-point property test (kill the WAL at every record boundary and
# at torn mid-record offsets; recovery must be byte-identical to an
# uncrashed twin), the WAL decoder fuzz seeds, and the recovery-ladder
# crash scenarios.
test-crash:
	$(GO) test -race -run 'CrashPoint|Ladder|Durable|Snapshot|SafeMode|Inspect|Fuzz' ./internal/placement/durable/

# A short chaos soak: randomized churn against the durable store with
# repeated crash-kills at random WAL offsets (including mid-record torn
# writes). Fails on any invariant violation or overbooked port. CI runs
# 30 s; bump -duration for longer soaks.
soak:
	$(GO) run ./cmd/silo-bench -run soak -duration 30 -soak-report soak.json

# Reproduces the placement-at-scale numbers recorded in
# bench_all_output.txt (see README.md "Placement at scale").
bench-placement:
	$(GO) test -run '^$$' -bench 'BenchmarkPlacement100K|BenchmarkPlaceRemoveChurn|BenchmarkQueueBound$$' -benchmem .

# Asserts the metrics core costs zero allocations per observation on
# both the enabled and disabled paths (see README.md "Observability").
bench-obs:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem ./internal/obs/

# Asserts the per-window telemetry hot path (registry rollup capture +
# SLO burn-rate flush) is allocation-free in steady state.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkCapture|BenchmarkFlush' -benchmem ./internal/obs/timeseries/ ./internal/obs/slo/

# Asserts the introspection plane (per-port headroom taps + envelope
# estimators) costs zero allocations per packet on the hot path.
bench-introspect:
	$(GO) test -run '^$$' -bench BenchmarkIntrospectOverhead -benchmem .

# Asserts the incident plane (violation tap -> log -> correlation)
# costs zero allocations per observed packet.
bench-incident:
	$(GO) test -run '^$$' -bench BenchmarkIncidentOverhead -benchmem ./internal/obs/incident/

# Asserts the engine self-observability plane (RuntimeProbe + engine
# counters + silo_runtime_* families) costs zero allocations per packet
# on the parallel hot path (see README.md "Runtime plane").
bench-runtime:
	$(GO) test -run '^$$' -bench BenchmarkRuntimeOverhead -benchmem .

# Asserts the WAL append hot path (encode + write + batched fsync) is
# allocation-free per logged mutation.
bench-wal:
	$(GO) test -run '^$$' -bench BenchmarkWALAppend -benchmem ./internal/placement/durable/

# Runs the microbenchmarks and compares them against the committed
# BENCH_*.json baselines; exits non-zero on regression.
regress:
	$(GO) run ./cmd/silo-bench -regress

# The placement row alone, which CI blocks on: with untouched scopes
# collapsed the 100K-host stream's mean is no longer set by a
# millisecond-scale rejection tail, so it is stable enough to gate.
regress-placement:
	$(GO) run ./cmd/silo-bench -run placeub -regress

# The pacer rows, which CI also blocks on: Figure 10's single-VM,
# single-destination batch construction, and the datacenter's shape —
# one HostPacer, 4 VMs x 6 backlogged destinations behind hose buckets,
# through NextBatch — whose per-frame cost no other gate sees.
regress-pacer:
	$(GO) run ./cmd/silo-bench -run pacerub -regress

# Regenerates the committed microbenchmark baselines in place. Run on a
# quiet machine and commit the diff deliberately.
baselines:
	$(GO) run ./cmd/silo-bench -run placeub,pacerub,netsimub,netsimpar,introspectub,incidentub,runtimeub,walub -bench-json .
