#!/usr/bin/env bash
# bench_smoke.sh — CI gate on pipeline scaling: the multi-worker row of
# BenchmarkPipelineRS255_239 (workers=GOMAXPROCS, or workers=4 when
# GOMAXPROCS is 1) must deliver at least MIN_SPEEDUP x the frames/s of
# workers=1. The assertion only fires when that row ran >= 4 workers on
# a host with >= 4 CPUs (the GitHub runner); otherwise the ratio is
# printed but not enforced, so the script stays runnable anywhere.
#
# Usage:
#   scripts/bench_smoke.sh [benchtime]
#
# Environment:
#   MIN_SPEEDUP   required multi-worker / workers=1 throughput ratio (default 2.0)
set -euo pipefail

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
min_speedup="${MIN_SPEEDUP:-2.0}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The batch=16 children of the matched rows run too (Go matches -bench
# per path segment); the awk below only scores the unbatched rows.
go test -run 'ZZZNONE' -benchtime "$benchtime" -count 3 \
    -bench 'PipelineRS255_239/^workers=[0-9]+$' . | tee "$raw"

cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

# Best-of-3 ns/op per row, then frames/s ratio = ns(workers=1) / ns(workers=N).
# The -N GOMAXPROCS suffix is absent on single-proc hosts, so it is optional.
awk -v cpus="$cpus" -v min="$min_speedup" '
$1 ~ /^BenchmarkPipelineRS255_239\/workers=[0-9]+(-[0-9]+)?$/ {
    w = $1; sub(/-[0-9]+$/, "", w); sub(/.*workers=/, "", w)
    if (w == 1) { if (w1 == 0 || $3 < w1) w1 = $3 }
    else { workers = w; if (wn == 0 || $3 < wn) wn = $3 }
}
END {
    if (w1 == 0 || wn == 0) {
        print "bench_smoke: missing workers=1 or multi-worker results" > "/dev/stderr"
        exit 1
    }
    ratio = w1 / wn
    printf "bench_smoke: workers=1 %.0f ns/op, workers=%d %.0f ns/op, speedup %.2fx (%d cpus)\n",
        w1, workers, wn, ratio, cpus
    if (workers < 4 || cpus < 4) {
        printf "bench_smoke: workers=%d on %d cpus (the gate needs >= 4 of each), scaling gate skipped\n", workers, cpus
        exit 0
    }
    if (ratio < min) {
        printf "bench_smoke: FAIL — workers=%d speedup %.2fx < required %.2fx\n",
            workers, ratio, min > "/dev/stderr"
        exit 1
    }
    printf "bench_smoke: OK — workers=%d speedup %.2fx >= %.2fx\n", workers, ratio, min
}
' "$raw"
