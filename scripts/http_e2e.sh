#!/usr/bin/env bash
# End-to-end smoke of the HTTP surface: build chordalctl, boot -serve on a
# loopback port, run a scripted batch of curl queries, and diff the
# responses against the checked-in golden transcript. Run with --update to
# regenerate the golden file after an intentional wire-format change.
#
# Usage: scripts/http_e2e.sh [--update]
set -euo pipefail

cd "$(dirname "$0")/.."
GOLDEN=scripts/testdata/http_e2e.golden
WORK=$(mktemp -d)
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/chordalctl" ./cmd/chordalctl

# The paper's Figure 3(c) scheme (with its single chord) plus a tiny tree.
cat > "$WORK/library.txt" <<'EOF'
v1 A
v1 B
v1 C
v2 1
v2 2
v2 3
edge A 1
edge B 1
edge B 2
edge C 2
edge C 3
edge A 3
edge C 1
EOF
cat > "$WORK/tiny.txt" <<'EOF'
v1 x
v1 y
v2 r
edge x r
edge y r
EOF

# -cache-shards is pinned so the per-shard occupancy in /v1/stats is
# machine-independent (the default shard count tracks GOMAXPROCS).
"$WORK/chordalctl" -serve 127.0.0.1:0 \
  -registry "library=$WORK/library.txt,tiny=$WORK/tiny.txt" \
  -max-terminals 5 -cache-shards 4 -log-format json > "$WORK/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the announced listen address.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^chordalctl: serving HTTP on \([^ ]*\).*/\1/p' "$WORK/server.log")
  [ -n "$ADDR" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log" >&2; echo "server died" >&2; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never announced its address" >&2; exit 1; }
BASE="http://$ADDR"

req() { # req NAME METHOD PATH [BODY]
  local name=$1 method=$2 path=$3 body=${4-}
  echo "=== $name"
  if [ "$method" = GET ]; then
    curl -sS -w 'status:%{http_code}\n' "$BASE$path"
  else
    curl -sS -w 'status:%{http_code}\n' -H 'Content-Type: application/json' -d "$body" "$BASE$path"
  fi
}

GOT="$WORK/got.txt"
# The recompute-cost ledger in /v1/stats reports real solver wall time,
# nondeterministic run to run; scrub the values (not the keys) so the
# golden still pins the field names and everything deterministic.
scrub_costs() { sed -E 's/"cost_(added|evicted|removed|resident|saved)_nanos":[0-9]+/"cost_\1_nanos":X/g'; }
{
  req schemes            GET  /v1/schemes
  req connect-labels     POST /v1/connect '{"scheme":"library","labels":["A","C"]}'
  req connect-cached     POST /v1/connect '{"scheme":"library","labels":["A","C"]}'
  req connect-forced     POST /v1/connect '{"scheme":"library","labels":["A","C"],"method":"heuristic"}'
  req connect-interps    POST /v1/connect '{"scheme":"library","labels":["A","C"],"interpretations":{"max_aux":2,"limit":3}}'
  req unknown-scheme     POST /v1/connect '{"scheme":"ghost","terminals":[0]}'
  req duplicate-terminal POST /v1/connect '{"scheme":"library","terminals":[0,0]}'
  req over-budget        POST /v1/connect '{"scheme":"library","terminals":[0,1,2,3,4,5]}'
  req empty-query        POST /v1/connect '{"scheme":"tiny","terminals":[]}'
  req bad-json           POST /v1/connect '{"scheme":'
  req batch              POST /v1/batch '{"scheme":"tiny","queries":[[0,1],[0,1],[99]]}'
  req interpretations    POST /v1/interpretations '{"scheme":"library","labels":["A","C"],"max_aux":2,"limit":3}'
  req stats              GET  /v1/stats
} | scrub_costs > "$GOT"

# /metrics smoke: histogram values vary run to run, so the scrape stays
# out of the golden diff — instead assert every required family is
# present and the traffic above left nonzero counts where it must have.
METRICS="$WORK/metrics.txt"
curl -sS "$BASE/metrics" > "$METRICS"
for series in \
  'chordal_http_requests_total{endpoint="/v1/connect",method="POST",code="200"}' \
  'chordal_http_requests_total{endpoint="/v1/connect",method="POST",code="404"}' \
  'chordal_http_request_duration_seconds_count{endpoint="/v1/connect",method="POST"}' \
  'chordal_solve_duration_seconds_count' \
  'chordal_cache_hits_total{scheme="library"}' \
  'chordal_cache_misses_total{scheme="library"}' \
  'chordal_cache_cost_saved_seconds_total{scheme="library"}' \
  'chordal_cache_cost_resident_seconds{scheme="library"}' \
  'chordal_scheme_epoch{scheme="tiny"}'
do
  grep -qF "$series" "$METRICS" || { echo "/metrics missing series: $series" >&2; cat "$METRICS" >&2; exit 1; }
  val=$(grep -F "$series " "$METRICS" | awk '{print $NF}')
  awk -v v="$val" 'BEGIN { exit (v > 0) ? 0 : 1 }' \
    || { echo "/metrics series $series = $val, want > 0" >&2; exit 1; }
done
# The per-shard decomposition exists (values depend on key hashing).
grep -qF 'chordal_cache_shard_entries{scheme="library",shard="3"}' "$METRICS" \
  || { echo "/metrics missing per-shard series for the 4-shard cache" >&2; exit 1; }
# ...and the library scheme's 4 shard series of each kind sum to its
# per-scheme series.
for m in hits_total misses_total evictions_total entries; do
  awk -v shard="chordal_cache_shard_$m{scheme=\"library\"," -v total="chordal_cache_$m{scheme=\"library\"}" '
    index($1, shard) == 1 { sum += $2; n++ }
    $1 == total { want = $2; found = 1 }
    END {
      if (n == 4 && found && sum == want) exit 0
      printf "/metrics: %d series %s...} sum to %g, %s reads %g\n", n, shard, sum, total, want > "/dev/stderr"
      exit 1
    }' "$METRICS"
done
# Warm fills exist as a family (zero here: nothing booted from a warm snapshot).
grep -qF 'chordal_cache_warm_fills_total{scheme="library"} 0' "$METRICS" \
  || { echo "/metrics missing warm-fills series (want 0 on a cold boot)" >&2; exit 1; }
grep -q 'chordal_http_inflight_limit 256' "$METRICS" \
  || { echo "/metrics inflight limit should be the serve default (256)" >&2; exit 1; }
echo "metrics smoke OK ($(grep -c '^chordal_' "$METRICS") series)"

# Tracing smoke: a request carrying a sampled W3C traceparent must be
# retained under that trace id, resolvable on GET /v1/traces with its
# phase spans, and the id stamped into the JSON access log. Stays out of
# the golden diff — trace ids and durations vary run to run.
TRACE_ID=0123456789abcdef0123456789abcdef
curl -sS -o /dev/null -H 'Content-Type: application/json' \
  -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" \
  -d '{"scheme":"library","labels":["A","B"]}' "$BASE/v1/connect"
TRACES="$WORK/traces.json"
curl -sS "$BASE/v1/traces" > "$TRACES"
grep -qF "\"trace_id\":\"$TRACE_ID\"" "$TRACES" \
  || { echo "/v1/traces missing propagated trace $TRACE_ID" >&2; cat "$TRACES" >&2; exit 1; }
grep -qF '"name":"solve"' "$TRACES" \
  || { echo "/v1/traces entry has no solve phase span" >&2; cat "$TRACES" >&2; exit 1; }
grep -qF "\"trace_id\":\"$TRACE_ID\"" "$WORK/server.log" \
  || { echo "JSON access log not stamped with trace $TRACE_ID" >&2; cat "$WORK/server.log" >&2; exit 1; }
echo "tracing smoke OK (trace $TRACE_ID propagated end to end)"

# Graceful shutdown: SIGTERM must produce a clean exit.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "server exited non-zero after SIGTERM" >&2; cat "$WORK/server.log" >&2; exit 1; }
grep -q 'server stopped' "$WORK/server.log" || { echo "missing graceful-stop line" >&2; cat "$WORK/server.log" >&2; exit 1; }

if [ "${1-}" = --update ]; then
  mkdir -p "$(dirname "$GOLDEN")"
  cp "$GOT" "$GOLDEN"
  echo "updated $GOLDEN"
  exit 0
fi

diff -u "$GOLDEN" "$GOT" || { echo "HTTP e2e output diverged from golden" >&2; exit 1; }
echo "http e2e OK ($(grep -c '^===' "$GOT") requests)"
