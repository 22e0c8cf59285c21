#!/usr/bin/env bash
# Builds credist-bench from the source tree it sits in and runs it from the
# root of that tree, passing every argument through:
#
#   bash credist-bench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, prepared inputs and trace files all go
# under .bench_build/ at the root, so the benchmark writes nowhere else.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/credist-bench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd credist-bench && go build -o "$out/bin/credist-bench" .)
exec "$out/bin/credist-bench" "$@"
