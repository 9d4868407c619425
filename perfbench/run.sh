#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# (.bench_build, or $CARGO_TARGET_DIR when set): the Go build cache and
# the toolchain's local telemetry, the temp root for store directories,
# and the traced run's spans. The benchmark binary replaces this shell
# (exec), so no child process can outlive a kill of the command.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOENV=off \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

# Build in its own process group, so a signal during the build stops the
# compiler processes too.
set -m
go -C perfbench build -o "$build/perfbench" . &
pid=$!
trap 'kill -TERM -- "-$pid" 2>/dev/null; wait "$pid"; exit 143' TERM INT
wait "$pid"
trap - TERM INT
set +m
exec "$build/perfbench" --trace-out "$build" "$@"
