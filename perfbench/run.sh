#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (inside the
# checkout) and runs it with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-engine-small --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
