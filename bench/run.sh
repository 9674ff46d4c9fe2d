#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout. Arguments go to the bench program, e.g.
#   bash bench/run.sh --workload pr_batch --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local \
		go build -o "$build/bench" .
) >&2
cd "$root"
exec "$build/bench" "$@"
