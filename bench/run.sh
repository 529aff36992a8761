#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Called as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of the checkout (see BENCHMARK.json). Everything the build
# writes (Go build cache, the binary, the stores' data) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The Go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/bench" "$@"
