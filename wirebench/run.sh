#!/usr/bin/env bash
# Builds unsd and the wirebench program from the checkout it is run in, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash wirebench/run.sh --workload mixed-open --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

go build -o "$out/unsd" ./cmd/unsd
(cd wirebench && go build -o "$out/wirebench" .)
exec "$out/wirebench" -unsd "$out/unsd" "$@"
