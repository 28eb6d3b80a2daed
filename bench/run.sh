#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the root of a uexc checkout, e.g.
#   bash bench/run.sh -workload serve -seed 1 -seconds 10 -trace 0
# The binary, the Go build cache and any span files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a uexc checkout (go.mod, internal/ and bench/ needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"

(cd "$root/bench" && go build -o "$build/uexc-perf" .)
exec "$build/uexc-perf" "$@"
