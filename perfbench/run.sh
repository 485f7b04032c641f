#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload ckpt --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the compiler's scratch files all stay
# inside the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
