#!/usr/bin/env bash
# bench.sh — run the repository's throughput benchmarks COUNT times each
# and emit a machine-readable BENCH_<n>.json summary: a "host" block
# (cores and CPU model matter — pipeline scaling numbers are meaningless
# without them) plus one entry per benchmark with the median, min and
# max ns/op over the runs, and the median MB/s, B/op and allocs/op.
#
# Usage:
#   scripts/bench.sh [out.json] [benchtime] [count]
#
# Defaults: out=BENCH_17.json, benchtime=0.5s, count=5. Runs from the
# repo root. The benchmark set covers the bulk GF kernel layer and
# everything built on it: the op x field x tier matrix behind the fixed
# kernel-tier rule (BenchmarkKernelOps), root RS/GF/pipeline benches
# (including the batched pipeline variants and the per-kernel-tier
# GFTier A/B rows: scalar vs table vs the auto rule), the per-package
# Bulk-vs-Scalar pairs in internal/rs, internal/bch, internal/aes and
# the pipeline link chain, the GHASH block multiply per implementation
# (table, hwclmul, the bit-serial reference), the AES block encrypt and
# a 3824-byte GCM open per block strategy (word, aesni), plus the
# wide-field layer:
# the gfbig schoolbook and hwclmul strategies through the
# allocation-free MulTo path at 163, 233 and 283 bits and SquareTo at
# 233, the allocating schoolbook and Karatsuba full products, and the
# ECC engine ops built on them.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_17.json}"
benchtime="${2:-0.5s}"
count="${3:-5}"

pattern='RSEncode255|RSSyndromes255|RSDecode255|GFKernel|GFMul|GFTier|PipelineRS255_239'
pkg_pattern='Bulk|Scalar|DecodeTo255|Syndromes63|MixColumns|LinkStages|GHASH|EncryptBlock|GCMOpen3824'
ecc_pattern='MulToStrategies|SquareTo|MulFull233|InvTo|ECDHDerive|ECDSASign|ECDSAVerify'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

bench() {
    go test -run 'ZZZNONE' -timeout 0 -benchtime "$benchtime" -count "$count" -benchmem "$@" >>"$raw" ||
        { cat "$raw" >&2; exit 1; }
}
bench -bench 'KernelOps' ./internal/gf
bench -bench "$pattern" .
bench -bench "$pkg_pattern" ./internal/rs ./internal/bch ./internal/aes ./internal/pipeline
bench -bench "$ecc_pattern" ./internal/gfbig ./internal/ecc

cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
goversion="$(go env GOVERSION)"

# Parse `go test -bench` lines:
#   BenchmarkName-8   1234   5678 ns/op [12.3 MB/s] [45 B/op] [6 allocs/op] [...]
# and fold the COUNT repeats of each name into median/min/max.
awk -v cpus="$cpus" -v gover="$goversion" -v runs="$count" '
function median(list,    v, n, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    lo = v[1]; hi = v[n]
    return (n % 2) ? v[(n + 1) / 2] : sprintf("%.2f", (v[n / 2] + v[n / 2 + 1]) / 2)
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "MB/s")      mbs[name] = mbs[name] " " $(i-1)
        if ($i == "B/op")      bop[name] = bop[name] " " $(i-1)
        if ($i == "allocs/op") aop[name] = aop[name] " " $(i-1)
    }
    if (ns == "") next
    if (!(name in nsl)) order[++names] = name
    nsl[name] = nsl[name] " " ns
}
END {
    print "{"
    printf "  \"host\": {\"cpus\": %d, \"cpu\": \"%s\", \"goos\": \"%s\", \"goarch\": \"%s\", \"go\": \"%s\", \"runs\": %d},\n", cpus, cpu, goos, goarch, gover, runs
    print "  \"benchmarks\": ["
    for (k = 1; k <= names; k++) {
        name = order[k]
        med = median(nsl[name])
        line = sprintf("    {\"name\": \"%s\", \"ns_op\": %s, \"ns_op_min\": %s, \"ns_op_max\": %s", name, med, lo, hi)
        if (name in mbs) line = line ", \"mb_s\": " median(mbs[name])
        if (name in bop) line = line ", \"b_op\": " median(bop[name])
        if (name in aop) line = line ", \"allocs_op\": " median(aop[name])
        printf "%s}%s\n", line, (k < names ? "," : "")
    }
    print "  ]"
    print "}"
}
' "$raw" >"$out"

n="$(grep -c '"name"' "$out" || true)"
echo "wrote $out ($n benchmarks x $count runs, $cpus cpus)"
