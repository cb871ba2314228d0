#!/usr/bin/env bash
# Pinned benchmark trajectory: run the serving-path micro-benchmarks every
# PR cares about (the frozen solvers' per-query cost, a (6,2)-chordal
# query's dispatch, hot cache serving, the answer cache's own hit and
# full-cache miss, batch throughput, the bit-parallel kernels against
# their CSR fallbacks, and the compile path's classification), then the
# repository's benchmark, perfbench, once
# per BENCHMARK.json workload, and fold both into one schema-versioned
# BENCH_<tag>.json so perf changes leave a diffable, attributable trail
# next to the code.
#
# Schema 3: schema_version, tag, cores (GOMAXPROCS and NumCPU of this
# host), benchtime and the micro rows ({name, ns_per_op, bytes_per_op,
# allocs_per_op}), and perfbench: one {workload, info, result} entry per
# workload, in BENCHMARK.json's order, holding the info and result lines
# of `bash perfbench/run.sh --workload W --seed 1 --seconds <run_seconds>
# --trace 0`. A perfbench run that fails its own answer check fails the
# script.
#
# BENCH_TAG is mandatory: an earlier version defaulted it to the previous
# PR's tag, which silently overwrote that PR's trajectory file on every
# re-run. Files are append-only — the script refuses to clobber an
# existing output unless FORCE=1. The file is written to a temporary file
# beside the output and moved into place only once every run passed, so
# a failed run leaves no output file.
#
# Needs go and jq.
#
# Usage: BENCH_TAG=pr9 scripts/bench_trajectory.sh [out.json]
#   BENCHTIME=2s BENCH_TAG=pr9 scripts/bench_trajectory.sh  # steadier micro rows
set -euo pipefail

cd "$(dirname "$0")/.."
: "${BENCH_TAG:?set BENCH_TAG (e.g. BENCH_TAG=pr9) — trajectory files are named and compared by tag}"
OUT=${1:-BENCH_${BENCH_TAG}.json}
BENCHTIME=${BENCHTIME:-0.5s}
if [ -e "$OUT" ] && [ "${FORCE:-0}" != 1 ]; then
  echo "bench_trajectory: $OUT already exists; trajectories are append-only (FORCE=1 to overwrite)" >&2
  exit 1
fi
RAW=$(mktemp)
MICRO=$(mktemp)
RUNS=$(mktemp)
TMP=$(mktemp "$(dirname "$OUT")/.$(basename "$OUT").XXXXXX")
trap 'rm -f "$RAW" "$MICRO" "$RUNS" "$TMP"' EXIT

# Each entry pins one package's benchmark set as "package:pattern", the
# pattern's |-alternatives being benchmark names; -run 'xxx' skips the
# tests so only benchmarks execute. Every name must match at least one
# benchmark, or a rename would silently drop its rows from the file.
PINNED=(
  ".:BenchmarkSteinerFrozen|BenchmarkServiceThroughput|BenchmarkConnectorDispatch"
  "./internal/core:BenchmarkServeHotParallel"
  "./internal/cache:BenchmarkCacheMissFull|BenchmarkCacheHit"
  "./internal/graph:BenchmarkKernel"
  "./internal/chordality:BenchmarkClassifyFrozen"
)
for entry in "${PINNED[@]}"; do
  go test -run 'xxx' -bench "${entry#*:}" \
    -benchmem -benchtime "$BENCHTIME" -timeout 15m "${entry%%:*}"
done | tee "$RAW"
for entry in "${PINNED[@]}"; do
  IFS='|' read -ra names <<< "${entry#*:}"
  for name in "${names[@]}"; do
    if ! grep -q "^${name}" "$RAW"; then
      echo "bench_trajectory: pinned pattern $name matched no benchmark" >&2
      exit 1
    fi
  done
done

# Distill "BenchmarkX/sub-8  N  ns/op  B/op  allocs/op" lines into a JSON
# array. The -<GOMAXPROCS> suffix is stripped so trajectories diff cleanly
# across machines with different core counts (the header's "cores" block
# records the actual budget).
awk '
  BEGIN { printf "[\n" }
  /^Benchmark/ && / ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; aop = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns  = $(i-1)
      if ($i == "B/op")      bop = $(i-1)
      if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    if (bop == "") bop = "null"
    if (aop == "") aop = "null"
    printf "%s  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, ns, bop, aop
    sep = ",\n"; count++
  }
  END {
    if (count == 0) { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "\n]\n"
  }
' "$RAW" > "$MICRO"

# perfbench prints its info line and then its result line last on stdout,
# and exits non-zero when the run fails its checks.
RUN_SECONDS=$(jq -r .run_seconds BENCHMARK.json)
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
  echo "bench_trajectory: perfbench $workload, $RUN_SECONDS s" >&2
  lines=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds "$RUN_SECONDS" --trace 0)
  printf '%s\n' "$lines" | tail -n 2 |
    jq -c -s --arg w "$workload" '{workload: $w, info: .[0], result: .[1]}' >> "$RUNS"
done

# The cores header is the Go runtime's own reading, from perfbench's info.
jq -n --arg tag "$BENCH_TAG" --arg benchtime "$BENCHTIME" \
  --slurpfile micro "$MICRO" --slurpfile runs "$RUNS" \
  '{schema_version: 3, tag: $tag,
    cores: {gomaxprocs: $runs[0].info.gomaxprocs, numcpu: $runs[0].info.numcpu},
    benchtime: $benchtime, benchmarks: $micro[0], perfbench: $runs}' > "$TMP"
chmod 644 "$TMP"
mv "$TMP" "$OUT"

echo "bench_trajectory: wrote $(jq '.benchmarks | length' "$OUT") benchmarks and $(jq '.perfbench | length' "$OUT") perfbench runs to $OUT"
