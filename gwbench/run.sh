#!/usr/bin/env bash
# Builds the gateway benchmark from this checkout and runs it; every
# argument is passed through (--workload, --seed, --seconds, --trace).
# Build outputs and the Go build cache stay in .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd gwbench && go build -o "$out/gwbench" .)
exec "$out/gwbench" "$@"
