#!/usr/bin/env bash
# Builds the benchmark from the checkout's source, then runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload mesh-step --seed 1 --seconds 15 --trace 0
#
# The binary and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build), relative to the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
