#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash benchmark/run.sh --workload paper-gen --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh compare a1.txt a2.txt -- b1.txt b2.txt
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, binary) goes under .bench_build/ in the current directory,
# and no network is used: the benchmark module depends only on the
# repository module one directory up, so the build fails (non-zero exit,
# no result printed) when that module is absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$here" build -o "$out/carbonbench" .
exec "$out/carbonbench" "$@"
