#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source into
# .bench_build/ at the root of the checkout (nothing is written outside
# it: the Go build cache and temporary files live there too), then run it
# with the driver's arguments. Run from the root of the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp"
go build -o "$out/gridbench" ./bench
exec "$out/gridbench" "$@"
