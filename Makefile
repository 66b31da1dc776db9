GO ?= go

.PHONY: all build vet test test-short test-race fuzz-smoke bench-sweep determinism serve-smoke byte-identity check verify

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Tier-1: what must stay green on every change (1.5-3 min on 2 cores; -short
# for 20-40 s).
test: build
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite plus the quick serial-vs-parallel determinism check under the
# race detector.
test-race:
	$(GO) test -race -timeout 20m ./...

# Short fuzz runs of the seven fuzz targets with checked-in corpora: the
# -faults spec parser, the estimator profile loader, the makespan
# attribution (explain JSON) decoder, the kernel scenario checker
# (byte-decoded concurrent programs checked for flavour agreement, monotonic
# time, horizon exactness and deterministic replay), the -arrivals
# spec parser, the latency quantile-sketch decoder, and the windowed
# sketch's cached fold against a from-scratch fold.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzLoadProfile$$' -fuzztime 10s ./internal/estimator
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/span
	$(GO) test -run '^$$' -fuzz '^FuzzKernelScenario$$' -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrivals$$' -fuzztime 10s ./internal/arrival
	$(GO) test -run '^$$' -fuzz '^FuzzSketchDecode$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzWindowedSketch$$' -fuzztime 10s ./internal/obs

# Regenerates BENCH_sweep.json: full-report wall time serial vs parallel,
# points/sec, speedup, byte-identity, and kernel allocs/op.
bench-sweep:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json

# Determinism: the explain, serving and policy-lab sweeps in-process under
# the race detector, then scripts/determinism.sh, which runs its table of
# (experiment, flags) rows for seeds 1-3 serially and on 4 workers and
# requires every report and capture file to be byte-identical.
determinism:
	$(GO) test -race -run '^TestExplain|^TestServing|^TestPolicylab' -timeout 20m ./internal/experiments
	./scripts/determinism.sh

# End-to-end gate for the live demo server: build cmd/anthill-serve, start
# it on a short schedule, poll /healthz, assert the /metrics families and an
# SSE frame, then SIGTERM and require exit 0.
serve-smoke:
	$(GO) test -run '^TestServeSmoke$$' -count=1 -timeout 5m ./cmd/anthill-serve

# The seed-1 reports (-exp all, serving, policylab), the serving capture
# artifacts and the live engine's golden replay must match the digests and
# golden files checked in (scripts/*.sha256, internal/serve/testdata).
# Regenerate them only for intentional model changes; a mismatch after a
# refactor means determinism broke.
byte-identity:
	./scripts/byte-identity.sh

# Mid-weight verification: vet + tier-1 tests + fuzz smoke + the chaos
# fault-injection determinism check (serial vs 4 workers, seeds 1-3) + the
# trace/metrics, explain-artifact, serving, policy-lab and full-report
# byte-identity gates + the live demo-server smoke test.
verify: vet test fuzz-smoke determinism serve-smoke byte-identity
	$(GO) test -run '^TestChaosDeterminism$$' -timeout 20m ./internal/experiments

# Tier-1+ pre-merge verification (vet, build, race, determinism seeds 1-3,
# sweep benchmark). See scripts/check.sh for knobs.
check:
	./scripts/check.sh
