#!/usr/bin/env bash
# Pinned benchmark trajectory: run the serving-path benchmarks every PR
# cares about (the frozen solvers' per-query cost, hot cache serving, batch
# throughput, and the bit-parallel kernels against their CSR fallbacks),
# then fold them together with a chordalctl load-harness run into one
# schema-versioned BENCH_<tag>.json so perf changes leave a diffable,
# attributable trail next to the code.
#
# BENCH_TAG is mandatory: an earlier version defaulted it to the previous
# PR's tag, which silently overwrote that PR's trajectory file on every
# re-run. Files are append-only now — the script refuses to clobber an
# existing output unless FORCE=1.
#
# Usage: BENCH_TAG=pr9 scripts/bench_trajectory.sh [out.json]
#   BENCHTIME=2s BENCH_TAG=pr9 scripts/bench_trajectory.sh  # steadier runs
#   LOAD_DURATION=5s BENCH_TAG=pr9 scripts/bench_trajectory.sh
set -euo pipefail

cd "$(dirname "$0")/.."
: "${BENCH_TAG:?set BENCH_TAG (e.g. BENCH_TAG=pr9) — trajectory files are named and compared by tag}"
OUT=${1:-BENCH_${BENCH_TAG}.json}
BENCHTIME=${BENCHTIME:-0.5s}
LOAD_DURATION=${LOAD_DURATION:-2s}
if [ -e "$OUT" ] && [ "${FORCE:-0}" != 1 ]; then
  echo "bench_trajectory: $OUT already exists; trajectories are append-only (FORCE=1 to overwrite)" >&2
  exit 1
fi
RAW=$(mktemp)
MICRO=$(mktemp)
trap 'rm -f "$RAW" "$MICRO"' EXIT

# Each entry pins one package's benchmark set as "package:pattern", the
# pattern's |-alternatives being benchmark names; -run 'xxx' skips the
# tests so only benchmarks execute. Every name must match at least one
# benchmark, or a rename would silently drop its rows from the file.
PINNED=(
  ".:BenchmarkSteinerFrozen|BenchmarkServiceThroughput"
  "./internal/core:BenchmarkServeHotParallel"
  "./internal/graph:BenchmarkKernel"
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

# Distill "BenchmarkX/sub-8  N  ns/op  B/op  allocs/op" lines into JSON.
# The -<GOMAXPROCS> suffix is stripped so trajectories diff cleanly across
# machines with different core counts (the header's "cores" block records
# the actual budget).
awk -v benchtime="$BENCHTIME" '
  BEGIN { printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime }
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
    printf "%s    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, ns, bop, aop
    sep = ",\n"; count++
  }
  END {
    if (count == 0) { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "\n  ]\n}\n"
  }
' "$RAW" > "$MICRO"

# The load harness boots a real server, drives the multi-tenant workload,
# and writes the final schema-v2 file: header (schema_version, tag,
# cores), the micro rows above, and cold/warm serving measurements.
rm -f "$OUT" # FORCE=1 path: chordalctl itself also refuses to overwrite
go run ./cmd/chordalctl -load self -load-duration "$LOAD_DURATION" \
  -bench-merge "$MICRO" -bench-tag "$BENCH_TAG" -bench-out "$OUT"

echo "bench_trajectory: wrote $(grep -c '"name"' "$OUT") benchmarks + serving report to $OUT"
