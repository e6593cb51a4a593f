#!/usr/bin/env bash
# Builds the benchmark and the vaqd daemon from source into .bench_build
# and runs the benchmark with the given flags. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload online --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (binaries, Go build cache, temporary
# repositories, span dumps) stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vaqd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/vaqd and perfbench/ not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/vaqd" ./cmd/vaqd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -vaqd "$build/bin/vaqd" -work "$build/perfbench" "$@"
