#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, span files) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/hsfqbench" .)
exec "$out/hsfqbench" -out "$out" "$@"
