#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the repository
# root:
#
#   bash e2ebench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/e2ebench" && go build -o "$build/musstibench" .)
exec "$build/musstibench" "$@"
