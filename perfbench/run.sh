#!/usr/bin/env bash
# Builds and runs the repository benchmark from the repository root:
#
#   bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout,
# including the Go build cache.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
