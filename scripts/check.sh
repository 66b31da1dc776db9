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

# Single -run and -fuzz steps go through scripts/gotest.sh, which fails a
# step whose pattern names no test: go test itself passes such a step with
# "no tests to run".

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l .  (every Go file gofmt-clean)"
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

echo "== go build ./..."
go build ./...

echo "== go test -race ./...  (full suite + quick determinism under the race detector)"
go test -race -timeout 20m ./...

echo "== kernel golden traces + properties  (scenario corpora vs testdata, invariants, -race)"
./scripts/gotest.sh run '^TestDiff|^TestProperty' ./internal/sim -race -count=1 -timeout 10m

echo "== go test ./...  (tier-1 suite + full-report determinism, digest and shape checks, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
ANTHILL_DETERMINISM_SEEDS="${ANTHILL_DETERMINISM_SEEDS:-3}" go test -timeout 40m ./...

echo "== fuzz smoke  (-faults parser, estimator profile decoder, explain JSON decoder, kernel scenarios, -arrivals parser, quantile-sketch decoder, windowed-sketch fold)"
./scripts/gotest.sh fuzz '^FuzzParse$' ./internal/fault 10s
./scripts/gotest.sh fuzz '^FuzzLoadProfile$' ./internal/estimator 10s
./scripts/gotest.sh fuzz '^FuzzDecode$' ./internal/span 10s
./scripts/gotest.sh fuzz '^FuzzKernelScenario$' ./internal/sim 15s
./scripts/gotest.sh fuzz '^FuzzParseArrivals$' ./internal/arrival 10s
./scripts/gotest.sh fuzz '^FuzzSketchDecode$' ./internal/obs 10s
./scripts/gotest.sh fuzz '^FuzzWindowedSketch$' ./internal/obs 10s

echo "== message-path alloc gates  (kernel workloads, the runtime's demand round, labeled-partition depth hook, task-queue fill/drain, without -race)"
./scripts/gotest.sh run '^TestMessagePath|^TestSpawnPooling|^TestEventLoop|^TestZero' ./internal/sim -count=1 -timeout 5m
./scripts/gotest.sh run '^TestDemandRoundAllocs$|^TestLabeledDepthHookAllocs$' ./internal/core -count=1 -timeout 5m
./scripts/gotest.sh run '^TestQueueFillDrainAllocs$' ./internal/policy -count=1 -timeout 5m

echo "== message-path golden traces  (full hook trace vs testdata, pipelined + serial requester; NIC and DMA step forms vs pinned times)"
./scripts/gotest.sh run '^TestGoldenMessagePath' ./internal/core -count=1 -timeout 10m
./scripts/gotest.sh run '^TestSendThen|^TestCopyThen' ./internal/hw -count=1 -timeout 5m

echo "== live engine memory gate  (10^6 bursty arrivals: <= 1 span-collector buffer per pipe, <= 16 B of heap per extra arrival, without -race)"
ANTHILL_SOAK_ARRIVALS=1000000 ./scripts/gotest.sh run '^TestEngineMemoryBound$' ./internal/serve -count=1 -timeout 10m

echo "== serve smoke  (live demo server: healthz, /metrics families, SSE frame, clean SIGTERM)"
./scripts/gotest.sh run '^TestServeSmoke$' ./cmd/anthill-serve -count=1 -timeout 5m

echo "== determinism  (race-detector sweeps + serial-vs-4-worker CLI artifacts, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
./scripts/gotest.sh run '^TestExplain|^TestServing|^TestPolicylab' ./internal/experiments -race -timeout 20m
./scripts/determinism.sh

echo "== byte-identity  (seed-1 reports and serving capture against checked-in digests, serve golden replay)"
./scripts/byte-identity.sh

if [ -z "${SKIP_BENCH:-}" ]; then
    echo "== benchsweep  (regenerates BENCH_sweep.json)"
    go run ./cmd/benchsweep -o BENCH_sweep.json
fi

echo "check.sh: all green"
