#!/bin/sh
# bench_stream.sh — benchmark the streaming ingestion path against the
# frozen batch reference and emit BENCH_pr6.json: ns/op and B/op for
# BuildStream vs the materialized buildBatch over the same crawl, the
# allocation ratio between them (streaming must not allocate more than
# the path it replaces, modulo a 10% noise margin), and the 10×-crawl
# peak-live-heap probe showing memory tracks kept users, not crawled
# peers. Run single-core so the numbers isolate the ingestion path.
#
# Usage: scripts/bench_stream.sh [output.json]
#   BENCHTIME=0.3s scripts/bench_stream.sh     # quicker CI smoke
set -eu
out="${1:-BENCH_pr6.json}"
benchtime="${BENCHTIME:-1s}"
tmp="$(mktemp)"
memlog="$(mktemp)"
trap 'rm -f "$tmp" "$memlog"' EXIT

GOMAXPROCS=1 go test -run '^$' \
  -bench 'BenchmarkBuildStream$|BenchmarkBuildBatch$' \
  -benchtime "$benchtime" ./internal/pipeline/ | tee "$tmp"

# The 10× crawl probe: peak live heap must stay under the fixed
# per-kept-user budget (the test fails the script if it regresses). The
# test logs the budget formula it checked, which lands in the JSON as is.
go test -run 'TestBuildStreamPeakHeapBounded$' -v -count=1 \
  ./internal/pipeline/ | tee "$memlog"

awk '
  FNR == 1 { file++ }
  file == 1 && /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns[name] = $3; bop[name] = $5; order[n++] = name
  }
  file == 2 && /crawled=/ {
    for (i = 1; i <= NF; i++) {
      if (split($i, kv, "=") == 2) mem[kv[1]] = kv[2]
    }
  }
  file == 2 && /budget formula: / {
    formula = $0; sub(/.*budget formula: /, "", formula)
  }
  END {
    if (n < 2) { print "benchmark output not parsed" > "/dev/stderr"; exit 1 }
    if (!("crawled" in mem) || formula == "") { print "memory probe log not parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"pr\": 6,\n"
    printf "  \"gomaxprocs\": 1,\n"
    printf "  \"benchmarks\": {\n"
    for (i = 0; i < n; i++)
      printf "    \"%s\": { \"ns_per_op\": %s, \"bytes_per_op\": %s }%s\n", \
        order[i], ns[order[i]], bop[order[i]], (i < n - 1 ? "," : "")
    printf "  },\n"
    ratio = bop["BenchmarkBuildStream"] / bop["BenchmarkBuildBatch"]
    printf "  \"stream_over_batch_bytes_per_op\": %.4f,\n", ratio
    printf "  \"peak_heap_10x_crawl\": {\n"
    printf "    \"crawled_peers\": %s,\n", mem["crawled"]
    printf "    \"kept_users\": %s,\n",    mem["kept"]
    printf "    \"base_mib\": %s,\n",      mem["base"]
    printf "    \"peak_mib\": %s,\n",      mem["peak"]
    printf "    \"budget_mib\": %s,\n",    mem["budget"]
    printf "    \"budget\": \"%s\"\n", formula
    printf "  },\n"
    printf "  \"gate\": { \"stream_bytes_per_op_max_ratio\": 1.10, \"stream_alloc_ok\": %s }\n", (ratio <= 1.10 ? "true" : "false")
    printf "}\n"
  }' "$tmp" "$memlog" >"$out"

echo "wrote $out:"
cat "$out"
if ! grep -q '"stream_alloc_ok": true' "$out"; then
  echo "streaming build allocates more than the batch path it replaces" >&2
  exit 1
fi
