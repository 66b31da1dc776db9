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

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l .  (every Go file gofmt-clean)"
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

echo "== go build ./..."
go build ./...

echo "== go test -race ./...  (full suite + quick determinism under the race detector)"
go test -race -timeout 20m ./...

echo "== kernel golden traces + properties  (scenario corpora vs testdata, flavour agreement, invariants, -race)"
go test -race -run '^TestDiff|^TestProperty' -count=1 -timeout 10m ./internal/sim

echo "== go test ./...  (tier-1 suite + full-report determinism, digest and shape checks, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
ANTHILL_DETERMINISM_SEEDS="${ANTHILL_DETERMINISM_SEEDS:-3}" go test -timeout 40m ./...

echo "== fuzz smoke  (-faults parser, estimator profile decoder, explain JSON decoder, kernel scenarios, -arrivals parser, quantile-sketch decoder, windowed-sketch fold)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/fault
go test -run '^$' -fuzz '^FuzzLoadProfile$' -fuzztime 10s ./internal/estimator
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/span
go test -run '^$' -fuzz '^FuzzKernelScenario$' -fuzztime 15s ./internal/sim
go test -run '^$' -fuzz '^FuzzParseArrivals$' -fuzztime 10s ./internal/arrival
go test -run '^$' -fuzz '^FuzzSketchDecode$' -fuzztime 10s ./internal/obs
go test -run '^$' -fuzz '^FuzzWindowedSketch$' -fuzztime 10s ./internal/obs

echo "== message-path alloc gates  (blocking + step flavours, the runtime's demand round, labeled-partition depth hook, task-queue fill/drain, without -race)"
go test -run '^TestMessagePath|^TestSpawnPooling|^TestEventLoop|^TestZero' -count=1 -timeout 5m ./internal/sim
go test -run '^TestDemandRoundAllocs$|^TestLabeledDepthHookAllocs$' -count=1 -timeout 5m ./internal/core
go test -run '^TestQueueFillDrainAllocs$' -count=1 -timeout 5m ./internal/policy

echo "== message-path golden traces  (full hook trace vs testdata, pipelined + serial requester)"
go test -run '^TestGoldenMessagePath' -count=1 -timeout 10m ./internal/core
go test -run '^TestSendThen|^TestCopyThen' -count=1 -timeout 5m ./internal/hw

echo "== live engine memory gate  (10^6 bursty arrivals: <= 1 span-collector buffer per pipe, <= 16 B of heap per extra arrival, without -race)"
ANTHILL_SOAK_ARRIVALS=1000000 go test -run '^TestEngineMemoryBound$' -count=1 -timeout 10m ./internal/serve

echo "== serve smoke  (live demo server: healthz, /metrics families, SSE frame, clean SIGTERM)"
go test -run '^TestServeSmoke$' -count=1 -timeout 5m ./cmd/anthill-serve

echo "== determinism  (race-detector sweeps + serial-vs-4-worker CLI artifacts, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
go test -race -run '^TestExplain|^TestServing|^TestPolicylab' -timeout 20m ./internal/experiments
./scripts/determinism.sh

echo "== byte-identity  (seed-1 reports and serving capture against checked-in digests, serve golden replay)"
./scripts/byte-identity.sh

if [ -z "${SKIP_BENCH:-}" ]; then
    echo "== benchsweep  (regenerates BENCH_sweep.json)"
    go run ./cmd/benchsweep -o BENCH_sweep.json
fi

echo "check.sh: all green"
