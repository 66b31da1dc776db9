#!/bin/sh
# Guarded go test steps for the gates in Makefile, check.sh and
# byte-identity.sh: a step whose pattern names no test fails, where go test
# itself passes it with "no tests to run" (or "no fuzz tests to fuzz").
#
#   scripts/gotest.sh run PATTERN PKG [FLAGS...]   go test -run PATTERN FLAGS PKG
#   scripts/gotest.sh fuzz PATTERN PKG TIME        fuzz the one target PATTERN
#                                                  names in PKG for TIME
#
# GO names the go command (default: go).
set -eu
go=${GO:-go}
if [ $# -lt 3 ] || { [ "$1" != run ] && [ "$1" != fuzz ]; }; then
    echo "usage: gotest.sh run PATTERN PKG [FLAGS...] | fuzz PATTERN PKG TIME" >&2
    exit 2
fi
mode=$1 pattern=$2 pkg=$3
shift 3
if [ -z "$($go test -list "$pattern" "$pkg" | grep -v '^ok ')" ]; then
    echo "gotest.sh: -$mode '$pattern' names no test in $pkg" >&2
    exit 1
fi
if [ "$mode" = run ]; then
    exec $go test -run "$pattern" "$@" "$pkg"
fi
exec $go test -run '^$' -fuzz "$pattern" -fuzztime "$1" "$pkg"
