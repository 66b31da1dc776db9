#!/bin/sh
# Serial-vs-parallel determinism gate for the CLI artifacts. Every row of the
# table below runs for each seed once serially and once on a 4-worker pool,
# and every file the two runs write must be byte-identical: the report, plus
# the trace and metrics captures or the explain artifact where the row asks.
#
#   scripts/determinism.sh                               seeds 1-3
#   ANTHILL_DETERMINISM_SEEDS=1 scripts/determinism.sh   seed 1 only
set -eu
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/anthill-sim" ./cmd/anthill-sim

# experiment | capture (trace, explain or -) | extra flag
table='serving|-|-arrivals=poisson:rate=4000,n=600;burst:rate=1000,n=200,peak=4,period=50ms
serving|-|
policylab|-|
fig7|trace|
fig10|explain|'

seeds=$(seq 1 "${ANTHILL_DETERMINISM_SEEDS:-3}")
echo "$table" | while IFS='|' read -r exp capture extra; do
    for seed in $seeds; do
        for mode in serial parallel; do
            out="$dir/$mode"
            mkdir -p "$out"
            set -- -exp "$exp" -seed "$seed" -o "$out/report.md"
            if [ "$mode" = serial ]; then
                set -- "$@" -parallel=false
            else
                set -- "$@" -parallel -workers 4
            fi
            case $capture in
            trace) set -- "$@" -trace "$out/trace.json" -metrics-out "$out/metrics.json" ;;
            explain) set -- "$@" -explain-out "$out/explain.json" ;;
            esac
            if [ -n "$extra" ]; then
                set -- "$@" "$extra"
            fi
            "$dir/anthill-sim" "$@"
        done
        for f in "$dir/serial"/*; do
            cmp "$f" "$dir/parallel/${f##*/}"
        done
        rm -rf "$dir/serial" "$dir/parallel"
        echo "determinism: $exp seed $seed ${extra:+$extra }byte-identical"
    done
done
