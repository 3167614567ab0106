#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout root,
# passing every argument on:
#
#   bash perfbench/run.sh --workload warm-figures --seed 42 --seconds 8 --trace 0
#
# Build cache, scratch stores, spans and result files all stay under
# $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
set -euo pipefail
root=$(pwd)
base=${CARGO_TARGET_DIR:-.bench_build}
case $base in
/*) ;;
*) base=$root/$base ;;
esac
out=$base/perfbench
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd perfbench
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOCACHE=$out/gocache GOTMPDIR=$out/tmp \
		GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off \
		go build -o "$out/perfbench" .
) >&2
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" -out "$out" "$@"
