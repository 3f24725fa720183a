#!/usr/bin/env bash
# Builds simbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload fig1-multiprog --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' files all go under .bench_build/ in the current directory, so
# a run reads and writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd bench && go build -o "$build/simbench" ./simbench)
exec "$build/simbench" "$@"
