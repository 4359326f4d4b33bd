#!/usr/bin/env bash
# Builds the benchmark and vacsem-serve from this checkout's sources into
# .bench_build/ at the checkout root, then runs the benchmark with the
# given flags from the root. Everything the Go toolchain writes (build
# cache, module cache, settings) stays under .bench_build/.
#
#   bash benchmark/run.sh --workload mult-sim --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -out results.json       # every workload
#   bash benchmark/run.sh -compare A.json B.json
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

cd "$root"
go build -o "$build/vacsem-serve" ./cmd/vacsem-serve
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" -serve-bin "$build/vacsem-serve" \
	-spec "$root/BENCHMARK.json" -golden "$root/benchmark/golden.json" "$@"
