#!/bin/sh
# Tier-1+ verification: everything the repo promises, in one command.
#
#   scripts/check.sh                       full pass (roughly 25 min on one core,
#                                          much faster on a multi-core host)
#   SKIP_BENCH=1 scripts/check.sh          skip the BENCH_sweep.json regeneration
#   ANTHILL_DETERMINISM_SEEDS=1 scripts/check.sh
#                                          check serial-vs-parallel byte-identity
#                                          for seed 1 only (default here: seeds 1-3)
set -eu
cd "$(dirname "$0")/.."

# run_tests PATTERN PKG [FLAGS...] runs go test -run PATTERN on PKG. It
# fails first if PATTERN names no test there: go test itself passes such a
# step with "no tests to run".
run_tests() {
    pattern=$1 pkg=$2
    shift 2
    if [ -z "$(go test -list "$pattern" "$pkg" | grep -v '^ok ')" ]; then
        echo "check.sh: -run '$pattern' names no test in $pkg" >&2
        exit 1
    fi
    go test -run "$pattern" "$@" "$pkg"
}

# fuzz PATTERN PKG TIME runs the one fuzz target PATTERN names in PKG for
# TIME, failing if it names none.
fuzz() {
    if [ -z "$(go test -list "$1" "$2" | grep -v '^ok ')" ]; then
        echo "check.sh: -fuzz '$1' names no fuzz target in $2" >&2
        exit 1
    fi
    go test -run '^$' -fuzz "$1" -fuzztime "$3" "$2"
}

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l .  (every Go file gofmt-clean)"
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

echo "== go build ./..."
go build ./...

echo "== go test -race ./...  (full suite + quick determinism under the race detector)"
go test -race -timeout 20m ./...

echo "== kernel golden traces + properties  (scenario corpora vs testdata, invariants, -race)"
run_tests '^TestDiff|^TestProperty' ./internal/sim -race -count=1 -timeout 10m

echo "== go test ./...  (tier-1 suite + full-report determinism, digest and shape checks, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
ANTHILL_DETERMINISM_SEEDS="${ANTHILL_DETERMINISM_SEEDS:-3}" go test -timeout 40m ./...

echo "== fuzz smoke  (-faults parser, estimator profile decoder, explain JSON decoder, kernel scenarios, -arrivals parser, quantile-sketch decoder, windowed-sketch fold)"
fuzz '^FuzzParse$' ./internal/fault 10s
fuzz '^FuzzLoadProfile$' ./internal/estimator 10s
fuzz '^FuzzDecode$' ./internal/span 10s
fuzz '^FuzzKernelScenario$' ./internal/sim 15s
fuzz '^FuzzParseArrivals$' ./internal/arrival 10s
fuzz '^FuzzSketchDecode$' ./internal/obs 10s
fuzz '^FuzzWindowedSketch$' ./internal/obs 10s

echo "== message-path alloc gates  (kernel workloads, the runtime's demand round, labeled-partition depth hook, task-queue fill/drain, without -race)"
run_tests '^TestMessagePath|^TestSpawnPooling|^TestEventLoop|^TestZero' ./internal/sim -count=1 -timeout 5m
run_tests '^TestDemandRoundAllocs$|^TestLabeledDepthHookAllocs$' ./internal/core -count=1 -timeout 5m
run_tests '^TestQueueFillDrainAllocs$' ./internal/policy -count=1 -timeout 5m

echo "== message-path golden traces  (full hook trace vs testdata, pipelined + serial requester; NIC and DMA step forms vs pinned times)"
run_tests '^TestGoldenMessagePath' ./internal/core -count=1 -timeout 10m
run_tests '^TestSendThen|^TestCopyThen' ./internal/hw -count=1 -timeout 5m

echo "== live engine memory gate  (10^6 bursty arrivals: <= 1 span-collector buffer per pipe, <= 16 B of heap per extra arrival, without -race)"
ANTHILL_SOAK_ARRIVALS=1000000 run_tests '^TestEngineMemoryBound$' ./internal/serve -count=1 -timeout 10m

echo "== serve smoke  (live demo server: healthz, /metrics families, SSE frame, clean SIGTERM)"
run_tests '^TestServeSmoke$' ./cmd/anthill-serve -count=1 -timeout 5m

echo "== determinism  (race-detector sweeps + serial-vs-4-worker CLI artifacts, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
run_tests '^TestExplain|^TestServing|^TestPolicylab' ./internal/experiments -race -timeout 20m
./scripts/determinism.sh

echo "== byte-identity  (seed-1 reports and serving capture against checked-in digests, serve golden replay)"
./scripts/byte-identity.sh

if [ -z "${SKIP_BENCH:-}" ]; then
    echo "== benchsweep  (regenerates BENCH_sweep.json)"
    go run ./cmd/benchsweep -o BENCH_sweep.json
fi

echo "check.sh: all green"
