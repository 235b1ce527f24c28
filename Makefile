GO ?= go

.PHONY: all ci fmt vet cross build test test-race test-admission test-obs test-pacer identity examples soak bench-placement

all: vet build test

# The test steps of the CI workflow, in order (CI also writes sample
# artifacts for upload).
ci: fmt vet cross build test test-race test-admission test-obs test-pacer identity examples soak

# Every Go file as gofmt writes it: lists the files that are not and
# fails if there are any.
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

# The non-amd64 build: vet and build for arm64, so a file gated to one
# architecture (netsim's prefetch_amd64.s) always has its fallback.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree under the race detector (about two minutes on two
# cores), the durable store's crash suite included. The obs planes run
# on one goroutine, so a race reported there means a plane was touched
# from a second one.
test-race:
	$(GO) test -race ./...

# check-run,PATTERN,PACKAGES fails unless PATTERN selects at least one
# test in each package: a -run pattern left dangling by a deleted or
# renamed test would otherwise pass silently ("no tests to run").
define check-run
	@for p in $(2); do \
		out=$$($(GO) test -list '$(1)' $$p) || { echo "$$out" >&2; exit 1; }; \
		echo "$$out" | grep -q '^Test' || { echo "-run '$(1)' selects no test in $$p" >&2; exit 1; }; \
	done
endef

# The admission invariant, 25 times over under the race detector: the
# seeded properties that draw fresh inputs each run — Manager against
# the test-side oracle, VerifyInvariants after every place / remove /
# fail / recover, a tenant admitted beside neighbours also admissible
# alone — and netcal's rate-capped curve rule they rest on (bounds never
# rise on removal, closed forms agree with materialized curves, no jump
# across peak = rate). Two cover the per-request certificate (reqMemo.
# emptyMax): TestQueueBoundMonotoneInPortLoadProperty (a port's bound
# does not fall as its load grows, to monoSlack) and
# TestCertifiedCapEquivalenceProperty (Manager against the oracle on
# 2–60-VM bursty tenants, where the certificate skips or shortens the
# per-server probes). TestUpCapMemoEquivalenceProperty holds the
# per-server NIC-up cap memo (upCapMemo) to the linear scan on every
# server after every operation. The flow simulator's edge rule
# (workload.AppendEdges, Rand.PermInto) is held to the [][]int
# Permutation-x builder and Rand.Perm it replaced, kept test-side:
# same pairs, same draws. TestApplyReplayEquivalenceProperty replays the
# mutations a churning manager logged through Apply into a fresh one,
# which must come out equal port by port.
# TestPagedPortStateEquivalenceProperty holds the manager's paged
# per-port state (portTable) to a dense oracle fed the same mutations:
# every port's state and cached bound, the pages allocated and
# VerifyInvariants, after every place / remove / fail / recover on a
# tree of several pages.
# TestTouchedScopeIndexEquivalenceProperty holds the scope search's
# touched-scope walk and the lazily counted slot index to the full scans
# kept test-side: candidates, search counts, free slots and touched
# bits, on a tree whose rack and pod bitsets span several words, with
# requests over the line rate among them.
ADMISSION_RUN = Equivalence|Churn|Monoton|Degenerate
ADMISSION_PKGS = ./internal/placement/ ./internal/netcal/ ./internal/workload/
test-admission:
	$(call check-run,$(ADMISSION_RUN),$(ADMISSION_PKGS))
	$(GO) test -race -count=25 -run '$(ADMISSION_RUN)' $(ADMISSION_PKGS)

# The obs planes' equivalences, 25 times over under the race detector,
# each run drawing fresh seeds: the trace's microsecond timestamps and
# the JSON string encoder against the float and reflective paths they
# replaced; the flight recorder's rings, which grow on demand, against
# a fully preallocated reference ring (same events, same spans); the
# one-pass indenter against json.Encoder with SetIndent and json.Indent,
# byte for byte on random documents.
OBS_RUN = AppendMicros|AppendJSONString|FlightRingGrowthEquivalence|AppendIndented
OBS_PKGS = ./internal/obs/
test-obs:
	$(call check-run,$(OBS_RUN),$(OBS_PKGS))
	$(GO) test -race -count=25 -run '$(OBS_RUN)' $(OBS_PKGS)

# The pacer's equivalences, 25 times over under the race detector (about
# three and a half minutes on two cores): the scheduler and batcher
# against the map-and-heap oracle kept in internal/pacer/oracle_test.go
# (fixed seeds and, in TestSchedulerMatchesOracleFreshSeeds, seeds drawn
# from the clock), the push-back path, the hose kernel against the
# map-based HoseAllocate it replaced, and the bucket chain's joint
# conformance properties.
PACER_RUN = MatchesOracle|Conformance|PushBack
PACER_PKGS = ./internal/pacer/
test-pacer:
	$(call check-run,$(PACER_RUN),$(PACER_PKGS))
	$(GO) test -race -count=25 -run '$(PACER_RUN)' $(PACER_PKGS)

# Parity: the stdout of all 13 silo-bench -run all experiments against
# cmd/silo-bench/testdata/all.golden, wall-clock fields masked (about
# 20 s). Tier-1 checks only the experiments that take at most about two
# seconds each. A change that keeps every figure passes this unchanged;
# one that moves a decision re-blesses the golden with
# `go test ./cmd/silo-bench -run TestCLI/golden -update`.
identity:
	$(GO) test -count=1 -run 'TestCLI/golden_runs' ./cmd/silo-bench -all

# The three example programs, the only callers of the public facade's
# Admit / Deploy / CoordinateHose besides the benchmark: each must run to
# completion and print its examples/<e>/testdata/stdout.golden byte for
# byte (about a second together once built). README.md embeds
# quickstart's output verbatim; the tier-1 TestExamplesMatchGoldens
# checks the goldens and that block, and -update rewrites the goldens.
examples:
	for e in quickstart oldi besteffort; do \
		out=$$($(GO) run ./examples/$$e) || exit 1; \
		printf '%s\n' "$$out" | diff examples/$$e/testdata/stdout.golden - || exit 1; \
	done

# The chaos soak: randomized churn against the durable store with
# repeated crash-kills at random WAL offsets (including mid-record torn
# writes), 7,500 crash/recovery cycles at seed 42 (about 30 s on two
# cores). Fails on any invariant violation or overbooked port, or if
# the cycles do not finish within -duration's 10-minute default; the
# verdict names the seed and the failing cycle. Raise -requests for a
# longer soak.
soak:
	$(GO) run ./cmd/silo-bench -run soak -requests 7500 -soak-report soak.json

# Reproduces the placement-at-scale numbers (see README.md "Placement
# at scale").
bench-placement:
	$(GO) test -run '^$$' -bench 'BenchmarkPlacement100K|BenchmarkPlaceRemoveChurn|BenchmarkQueueBound$$' -benchmem .
