#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash mbench/run.sh --workload mandel-tcp --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) under the repository root, so nothing is written outside
# the checkout. The build never reaches the network.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/mbench" .) >&2
exec "$out/mbench" "$@"
