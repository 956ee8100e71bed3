#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload apsp-grid --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root (Go build cache, temp files, the binary,
# the determinism records).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi

root=$(pwd)
build=.bench_build
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$root/$build/gocache" GOTMPDIR="$root/$build/tmp" PPROF_TMPDIR="$root/$build/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; point it into the checkout.
export XDG_CONFIG_HOME="$root/$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$root/$build/perfbench" .)

# A relative TMPDIR keeps the dist engine's unix socket paths short
# however deep the checkout sits; spawned workers share this directory.
export TMPDIR="$build/tmp"
exec "$build/perfbench" "$@"
