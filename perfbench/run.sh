#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every build artefact, cache and output stays in .bench_build/.
#
#   bash perfbench/run.sh --workload zipf-single-sc --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
