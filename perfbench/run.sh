#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload interactive-ta --seed 42 --seconds 20 --trace 0
#
# Every build output stays under $CARGO_TARGET_DIR (default .bench_build)
# in the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off
export GOCACHE=$out/go/cache GOPATH=$out/go/path GOTMPDIR=$out/go/tmp XDG_CONFIG_HOME=$out/go/config
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
