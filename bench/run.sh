#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash bench/run.sh --workload fig6 --seed 1 --seconds 6 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry, and scratch files all stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
(cd bench && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
