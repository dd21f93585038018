#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload rost-100k --seed 1 --seconds 25 --trace 0
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build in the repository root.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
