#!/bin/sh
# bench_obs.sh — measure the observability layer's overhead and emit
# BENCH_pr3.json: the full pipeline Build stage with the registry off vs
# on (the ≤3% acceptance budget), the ~6ns compiled origin lookup bare vs
# under the pipeline's shard-aggregated counting pattern, a KDE estimate
# with live counters and histograms, and the raw primitive costs (atomic
# counter, histogram observe) in both enabled and disabled (nil-receiver,
# branch-only) states. Run single-core so the numbers isolate the scalar
# hot paths.
#
# Usage: scripts/bench_obs.sh [output.json]
#   BENCHTIME=0.2s scripts/bench_obs.sh     # quicker CI smoke
set -eu
out="${1:-BENCH_pr3.json}"
benchtime="${BENCHTIME:-1s}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

GOMAXPROCS=1 go test -run '^$' \
  -bench 'BuildObsOff|BuildObsOn' \
  -benchtime "$benchtime" ./internal/pipeline/ | tee "$tmp"
GOMAXPROCS=1 go test -run '^$' \
  -bench 'OriginOfCompiled|OriginOfInstrumented' \
  -benchtime "$benchtime" ./internal/bgp/ | tee -a "$tmp"
GOMAXPROCS=1 go test -run '^$' \
  -bench 'Estimate$/n10000$' \
  -benchtime "$benchtime" ./internal/kde/ | tee -a "$tmp"
GOMAXPROCS=1 go test -run '^$' \
  -bench 'EstimateObs$' \
  -benchtime "$benchtime" ./internal/kde/ | tee -a "$tmp"
GOMAXPROCS=1 go test -run '^$' \
  -bench 'CounterInc|HistogramObserve' \
  -benchtime "$benchtime" ./internal/obs/ | tee -a "$tmp"

awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    vals[name] = $3; order[n++] = name
  }
  END {
    if (n == 0) { print "no benchmark output parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"pr\": 3,\n"
    printf "  \"unit\": \"ns/op\",\n"
    printf "  \"gomaxprocs\": 1,\n"
    printf "  \"benchmarks\": {\n"
    for (i = 0; i < n; i++)
      printf "    \"%s\": %s%s\n", order[i], vals[order[i]], (i < n - 1 ? "," : "")
    printf "  },\n"
    build   = vals["BenchmarkBuildObsOn"]          / vals["BenchmarkBuildObsOff"]
    origin  = vals["BenchmarkOriginOfInstrumented"] / vals["BenchmarkOriginOfCompiled"]
    kde     = vals["BenchmarkEstimateObs"]          / vals["BenchmarkEstimate/n10000"]
    printf "  \"overhead_enabled_over_disabled\": {\n"
    printf "    \"pipeline_build\": %.4f,\n", build
    printf "    \"origin_lookup\": %.4f,\n",  origin
    printf "    \"kde_estimate\": %.4f\n",    kde
    printf "  },\n"
    printf "  \"budget\": { \"pipeline_build_max\": 1.03, \"pipeline_build_ok\": %s }\n", (build <= 1.03 ? "true" : "false")
    printf "}\n"
  }' "$tmp" >"$out"

echo "wrote $out:"
cat "$out"
if ! grep -q '"pipeline_build_ok": true' "$out"; then
  echo "observability overhead exceeds the 3% budget" >&2
  exit 1
fi
