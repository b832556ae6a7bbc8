#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash _perfbench/run.sh --workload grid-100k --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache,
# temporary files, the binary, and the result and span files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/config" "$build/tmp"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOWORK=off
export TMPDIR=$build/tmp
export GOTMPDIR=$build/tmp

(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
