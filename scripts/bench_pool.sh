#!/bin/sh
# bench_pool.sh — snapshot the dataset-cache and session-pool benchmarks.
#
# Runs BenchmarkDatasetColdGenerate vs BenchmarkDatasetCacheHit (the
# paper-preset dataset brought to ready-to-serve — Load plus
# Session.Warm, what a pool admission waits for — from scratch vs from
# the content-addressed study cache) and
# BenchmarkPoolConcurrentMixedQueries (parallel queries rotated across
# three resident datasets), and writes BENCH_pool.json. The enforced
# gate is load_hit_x >= 8 on that whole quantity: Load alone would leave
# out the base what-if engine, which a cold build converges and a hit
# restores from the entry's forest section.
#
# Usage: scripts/bench_pool.sh [load-benchtime] [query-benchtime]
#        (defaults 2x and 1s)
set -eu

cd "$(dirname "$0")/.."
LOADTIME="${1:-2x}"
QUERYTIME="${2:-1s}"
OUT="BENCH_pool.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run NONE -bench 'BenchmarkDataset(ColdGenerate|CacheHit)$' \
    -benchtime "$LOADTIME" ./dataset/ | tee "$RAW"
go test -run NONE -bench 'BenchmarkPoolConcurrentMixedQueries$' \
    -benchtime "$QUERYTIME" ./dataset/ | tee -a "$RAW"

awk -v loadtime="$LOADTIME" -v querytime="$QUERYTIME" '
    /^BenchmarkDatasetColdGenerate/ { cold = $3 }
    /^BenchmarkDatasetCacheHit/     { hit = $3 }
    /^BenchmarkPoolConcurrentMixedQueries/ {
        for (i = 1; i <= NF; i++) if ($i == "queries/s") qps = $(i - 1)
    }
    END {
        if (cold == "" || hit == "" || qps == "") {
            print "bench_pool.sh: missing benchmark output" > "/dev/stderr"
            exit 1
        }
        printf "{\n"
        printf "  \"benchmark\": \"dataset cache (paper preset, Load + Warm: cold generate vs cache hit) + pool throughput (3 resident datasets, mixed queries)\",\n"
        printf "  \"load_benchtime\": \"%s\",\n", loadtime
        printf "  \"query_benchtime\": \"%s\",\n", querytime
        printf "  \"cold_generate_ns\": %s,\n", cold
        printf "  \"cache_hit_ns\": %s,\n", hit
        printf "  \"load_hit_x\": %.1f,\n", cold / hit
        printf "  \"pool_mixed_queries_per_sec\": %s\n", qps
        printf "}\n"
    }
' "$RAW" > "$OUT"

echo "wrote $OUT:"
cat "$OUT"

SPEEDUP=$(awk -F': ' '/load_hit_x/ {print $2+0}' "$OUT")
awk -v s="$SPEEDUP" 'BEGIN { exit (s >= 8 ? 0 : 1) }' || {
    echo "bench_pool.sh: cache-hit ready-to-serve ${SPEEDUP}x is below the 8x bar" >&2
    exit 1
}
