#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, for example:
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# traced-run records) goes under .bench_build/ at the repository root.
# The benchmark module imports the repository through a relative replace
# directive, so outside a full checkout the build fails and no result is
# printed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
