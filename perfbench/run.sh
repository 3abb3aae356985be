#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload olap --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# checkout root (binary, Go build cache, WAL directories, trace files).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
