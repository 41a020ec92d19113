#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload cold-iscas --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                 # all workloads, one child process each
#   bash bench/run.sh --trace 1       # per-layer breakdown of every workload
#   bash bench/run.sh --repeat 5      # spread of every metric over 5 runs
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the result caches the
# workloads create. Without the repository's sources next to bench/ the
# build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
