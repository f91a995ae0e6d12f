#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload fig4a --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh --compare runs-a runs-b
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/bench" && go build -o "$out/cpqbench" .)
exec "$out/cpqbench" "$@"
