#!/usr/bin/env bash
# Builds the serve benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark binary:
#
#   bash servebench/run.sh --workload churn-2048 --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the daemon's data directories
# live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-path" "$out/go-tmp"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/servebench" .) >&2
cd "$root"
exec "$out/servebench" --workdir "$out/servebench-work" "$@"
