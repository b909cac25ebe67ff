#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's own state and traced
# runs' span files stay under the build directory ($CARGO_TARGET_DIR,
# default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
XDG_CONFIG_HOME=$out/config go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
