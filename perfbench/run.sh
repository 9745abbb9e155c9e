#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binaries, snapshot
# directories and trace files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
