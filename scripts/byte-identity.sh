#!/bin/sh
# Byte-identity gate: seed-1 reports and observability captures must match
# the digests checked in next to this script, and the live serve engine's
# ManualClock replay must match its golden files.
#
#   scripts/byte-identity.sh        (also: make byte-identity)
#
#   exp_all_seed1.sha256            -exp all (the paper-order report)
#   exp_serving_seed1.sha256        -exp serving
#   exp_policylab_seed1.sha256      -exp policylab
#   serving_capture_seed1.sha256    -exp serving with -trace, -metrics-out
#                                   and -explain-out (report + 3 artifacts)
#   internal/serve/testdata         /metrics text and final Frame JSON
#
# Regenerate a digest only for an intentional model change; a mismatch after
# a refactor means determinism broke.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/anthill-sim" ./cmd/anthill-sim
cd "$dir"
./anthill-sim -exp all -seed 1 -parallel=false -o exp_all_seed1.md
./anthill-sim -exp serving -seed 1 -o exp_serving_seed1.md
./anthill-sim -exp policylab -seed 1 -o exp_policylab_seed1.md
./anthill-sim -exp serving -seed 1 -o serving_capture_seed1.md \
    -trace serving_capture_seed1.trace.json \
    -metrics-out serving_capture_seed1.metrics.json \
    -explain-out serving_capture_seed1.explain.json

status=0
for sums in exp_all_seed1 exp_serving_seed1 exp_policylab_seed1 serving_capture_seed1; do
    if ! sha256sum -c "$root/scripts/$sums.sha256"; then
        echo "byte-identity: $sums output differs from scripts/$sums.sha256" >&2
        status=1
    fi
done
cd "$root"
./scripts/gotest.sh run '^TestGoldenReplay$' ./internal/serve -count=1 || status=1
if [ "$status" -ne 0 ]; then
    echo "byte-identity: FAILED. If the change is an intentional model update," >&2
    echo "regenerate the digests; if this is a refactor, it broke byte-for-byte" >&2
    echo "determinism." >&2
    exit 1
fi
echo "byte-identity: every digest and golden file matches"
