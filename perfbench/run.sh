#!/usr/bin/env bash
# Builds the SNB benchmark from the checkout's own sources and runs it with
# the given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload interactive-read --seed 1 --seconds 10 --trace 0
#
# Every build product and run artefact stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout. The build fails, and the
# script exits non-zero without printing a result, when the program's
# sources are not next to the benchmark.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
