#!/bin/sh
# BENCHMARK.json's command: builds the harness from source inside the
# checkout and runs it with the arguments given.
#
#	sh bench/run.sh --workload ingest-echo-cluster --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory (the root of the checkout): the Go build cache, the
# binary, and the scratch directory the harness puts its WALs in. The
# build is a no-op when nothing changed, so only the first run of a
# checkout pays for it.
set -eu

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOWORK=off
# The build does not stamp the binary (a checkout need not be a git
# repository); where git is at hand the fingerprint still names the commit.
BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
