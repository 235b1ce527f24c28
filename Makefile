GO ?= go

.PHONY: all ci vet build test test-race test-admission examples soak bench-placement bench-obs bench-telemetry bench-introspect bench-incident bench-wal bench-hose regress regress-placement regress-pacer baselines

all: vet build test

# The blocking test and regression steps of the CI workflow, in order.
ci: vet build test test-race test-admission examples regress-placement regress-pacer

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree under the race detector (about two minutes on two
# cores): the parallel placement scope search, the sharded obs
# histograms and flight recorder, the fault injector with recovery
# hooks, the incident correlator, the durable store's crash suite.
test-race:
	$(GO) test -race ./...

# The admission invariant, 25 times over under the race detector: the
# seeded properties that draw fresh inputs each run — Manager against
# the test-side oracle, VerifyInvariants after every place / remove /
# fail / recover, a tenant admitted beside neighbours also admissible
# alone — and netcal's rate-capped curve rule they rest on (bounds never
# rise on removal, closed forms agree with materialized curves, no jump
# across peak = rate).
test-admission:
	$(GO) test -race -count=25 -run 'Equivalence|Churn|Monoton|Degenerate' ./internal/placement/ ./internal/netcal/

# The five example programs, the only callers of the public facade's
# Admit / Deploy / CoordinateHose besides the benchmark: each must run to
# completion (about nine seconds together). README.md embeds
# quickstart's output verbatim.
examples:
	for e in quickstart oldi besteffort memcached datacenter; do $(GO) run ./examples/$$e > /dev/null || exit 1; done

# A short chaos soak: randomized churn against the durable store with
# repeated crash-kills at random WAL offsets (including mid-record torn
# writes). Fails on any invariant violation or overbooked port. CI runs
# 30 s; bump -duration for longer soaks.
soak:
	$(GO) run ./cmd/silo-bench -run soak -duration 30 -soak-report soak.json

# Reproduces the placement-at-scale numbers (see README.md "Placement
# at scale").
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

# Asserts the WAL append hot path (encode + write + batched fsync) is
# allocation-free per logged mutation.
bench-wal:
	$(GO) test -run '^$$' -bench BenchmarkWALAppend -benchmem ./internal/placement/durable/

# Asserts the max-min hose solver allocates nothing once warm, on the
# 49-VM all-to-all tenant benchmark/kernels.go times through the
# id-keyed adapter (TestHoseKernelAllocs is tier-1's view of the same).
bench-hose:
	$(GO) test -run '^$$' -bench BenchmarkHoseKernel -benchmem ./internal/pacer/

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
	$(GO) run ./cmd/silo-bench -run placeub,pacerub,netsimub,introspectub,incidentub,walub -bench-json .
