#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the checkout:
#
#   bash mosaicbench/run.sh --workload clips --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, the binary, run scratch).
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/gopath" "${build}/config" "${build}/tmp" "${build}/bin"

export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/gotmp"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${build}/config"
export XDG_CACHE_HOME="${build}/config"
export TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -C "${root}/mosaicbench" -o "${build}/bin/mosaicbench" .
exec "${build}/bin/mosaicbench" "$@"
