#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments, e.g.
#
#	bash perfbench/run.sh --workload figure5 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout of the repository. Everything the
# build and the run write (Go build cache, binary, span files) goes under
# .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
