#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout and runs it with
# the given arguments, e.g.
#
#   bash servebench/run.sh --workload paper-3color --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs and the Go build
# cache go under .bench_build (or $CARGO_TARGET_DIR) in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
# Keep every file the go command writes (build cache, temporary work
# directories, telemetry counters) inside the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
