#!/usr/bin/env bash
# Builds lvperf from this checkout's sources and runs it with the given
# flags, from the checkout root:
#
#   bash lvperf/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/lvperf"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build
# directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/lvperf" && go build -o "$build/lvperf/lvperf" .)
cd "$root"
exec "$build/lvperf/lvperf" --out "$build/lvperf" "$@"
