#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash _perfbench/run.sh --workload eos_p100 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, untraced
# result history, traces) stays under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
