GO ?= go

.PHONY: all ci vet build test test-race test-admission examples soak bench-placement

all: vet build test

# The test steps of the CI workflow, in order (CI also writes sample
# artifacts for upload).
ci: vet build test test-race test-admission examples soak

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree under the race detector (about two minutes on two
# cores): the obs metric atomics, the debug endpoint's live readers
# during a run with every plane on (TestLiveReadersDuringRun), the
# durable store's crash suite.
test-race:
	$(GO) test -race ./...

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
# server after every operation.
test-admission:
	$(GO) test -race -count=25 -run 'Equivalence|Churn|Monoton|Degenerate' ./internal/placement/ ./internal/netcal/

# The five example programs, the only callers of the public facade's
# Admit / Deploy / CoordinateHose besides the benchmark: each must run to
# completion (about nine seconds together). README.md embeds
# quickstart's output verbatim.
examples:
	for e in quickstart oldi besteffort memcached datacenter; do $(GO) run ./examples/$$e > /dev/null || exit 1; done

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
