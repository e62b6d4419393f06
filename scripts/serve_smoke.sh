#!/usr/bin/env bash
# Serve data-plane smoke test. Boots latest_serve with introspection on,
# floods it with latest_loadgen over 64 trace-negotiated connections, and
# scrapes /metrics and /requestz while the flood is live, /profilez while
# short floods keep the server busy, then /statusz and /healthz. Then it
# floods a deliberately tiny-queued instance and requires shedding. Both
# runs must answer queries with zero protocol errors, and /healthz must
# answer 200.
#
# The mid-flood scrapes are kept in <build-dir>/serve-introspection/.
#
# Usage: scripts/serve_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVE_BIN="$BUILD_DIR/tools/latest_serve"
LOADGEN_BIN="$BUILD_DIR/tools/latest_loadgen"
for bin in "$SERVE_BIN" "$LOADGEN_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target latest_serve latest_loadgen)" >&2
    exit 1
  fi
done

OUT_DIR="$BUILD_DIR/serve-introspection"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
WORK_DIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

RPC_PORT=18091
METRICS_PORT=18092
OVERLOAD_PORT=18093
HTTP="http://127.0.0.1:$METRICS_PORT"

wait_ready() {  # wait_ready <log>
  for _ in $(seq 1 50); do
    grep -q SERVE_READY "$1" && return 0
    sleep 0.2
  done
  echo "error: no SERVE_READY in $1" >&2
  cat "$1" >&2
  exit 1
}

echo "== flood: 64 traced connections =="
"$SERVE_BIN" --port "$RPC_PORT" --metrics-port "$METRICS_PORT" \
  --run-for-ms 120000 >"$WORK_DIR/serve.log" &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
wait_ready "$WORK_DIR/serve.log"
"$LOADGEN_BIN" --port "$RPC_PORT" --connections 64 \
  --scenario flip --objects 200000 --duration 40000 \
  >"$WORK_DIR/loadgen_normal.log" &
LOADGEN_PID=$!
PIDS+=("$LOADGEN_PID")
# Scrape once the server has timed a query's queue wait and flushed a
# waterfall onto the slowest board, so both are of in-flight traffic.
QUERY_WAITS='^latest_serve_queue_wait_ms_count{class="query"} [1-9]'
for _ in $(seq 1 200); do
  curl -sf "$HTTP/metrics" >"$OUT_DIR/metrics.txt" || true
  curl -sf "$HTTP/requestz?json" >"$OUT_DIR/requestz.json" || true
  grep -q "$QUERY_WAITS" "$OUT_DIR/metrics.txt" &&
    grep -q '"slowest":\[{' "$OUT_DIR/requestz.json" && break
  sleep 0.05
done
# The flood can end within a second, so short floods over 4 more
# connections keep the server busy for the whole 2 s profile.
while [[ ! -e "$WORK_DIR/profiled" ]]; do
  "$LOADGEN_BIN" --port "$RPC_PORT" --connections 4 --scenario flip \
    --objects 20000 --duration 4000 >/dev/null
done &
BUSY_PID=$!
PIDS+=("$BUSY_PID")
curl -sf "$HTTP/profilez?seconds=2" >"$OUT_DIR/profilez.folded"
touch "$WORK_DIR/profiled"
wait "$BUSY_PID"
curl -sf "$HTTP/requestz" >"$OUT_DIR/requestz.html"
curl -sf "$HTTP/statusz" >"$OUT_DIR/statusz.txt"
curl -sf "$HTTP/tracez?dump" >"$OUT_DIR/tracez.json" || true
# /healthz must answer 200; the check runs last, after every other one.
HEALTH_CODE=$(curl -s -o "$OUT_DIR/healthz.json" -w '%{http_code}' \
  "$HTTP/healthz")
wait "$LOADGEN_PID"
cat "$WORK_DIR/loadgen_normal.log"
kill -TERM "$SERVE_PID" && wait "$SERVE_PID"
grep '^RESULT_JSON' "$WORK_DIR/serve.log"
grep -q '^latest_serve_queries_total' "$OUT_DIR/metrics.txt"
test -s "$OUT_DIR/profilez.folded"
grep -q serving "$OUT_DIR/statusz.txt"

echo "== overload: tiny query queue, 32 connections =="
"$SERVE_BIN" --port "$OVERLOAD_PORT" \
  --max-batch 1024 --max-query-queue 4 --run-for-ms 120000 \
  >"$WORK_DIR/serve_overload.log" &
OVERLOAD_PID=$!
PIDS+=("$OVERLOAD_PID")
wait_ready "$WORK_DIR/serve_overload.log"
"$LOADGEN_BIN" --port "$OVERLOAD_PORT" --connections 32 \
  --scenario burst --objects 20000 --duration 3000 \
  | tee "$WORK_DIR/loadgen_overload.log"
kill -TERM "$OVERLOAD_PID" && wait "$OVERLOAD_PID"

python3 - "$WORK_DIR" "$OUT_DIR" "$HEALTH_CODE" <<'EOF'
import json, os, re, sys
work, out, health_code = sys.argv[1], sys.argv[2], int(sys.argv[3])
def result(name):
    line = [l for l in open(os.path.join(work, name))
            if l.startswith("RESULT_JSON ")][0]
    return json.loads(line[len("RESULT_JSON "):])
normal = result("loadgen_normal.log")
assert normal["queries_answered"] > 0, normal
assert normal["protocol_errors"] == 0, normal
assert normal["errors"] == 0, normal
# Every connection negotiated the trace extension.
assert normal["traced_connections"] == normal["connections"], normal
# The server timed the flood's admission queue waits itself.
metrics = open(os.path.join(out, "metrics.txt")).read()
match = re.search(
    r'^latest_serve_queue_wait_ms_count\{class="query"\} (\S+)$',
    metrics, re.M)
assert match and float(match.group(1)) > 0, "no query queue wait on /metrics"
serve = result("serve.log")
assert serve["protocol_errors"] == 0, serve
assert serve["batches"] > 0, serve
overload = result("loadgen_overload.log")
assert overload["shed"] > 0, overload
assert overload["queries_answered"] > 0, overload
assert overload["protocol_errors"] == 0, overload
# The mid-flood scrapes were live: waterfalls were retained and the
# sampling profiler caught the batch thread serving.
requestz = json.load(open(os.path.join(out, "requestz.json")))
assert requestz["total_appended"] > 0, requestz
assert requestz["slowest"], requestz
profile = open(os.path.join(out, "profilez.folded")).read()
assert "ServeServer::ProcessBatch" in profile, "no serving in /profilez"
health = open(os.path.join(out, "healthz.json")).read().strip()
assert health_code == 200, f"/healthz answered {health_code}: {health}"
print(f"serve smoke ok: {normal['queries_answered']} answered "
      f"@ {normal['qps']:.0f} qps, {match.group(1)} server queue waits "
      f"mid-flood, "
      f"overload shed {overload['shed']} of {overload['queries_sent']}, "
      f"{requestz['total_appended']} waterfalls, "
      f"{len(profile.splitlines())} profile lines")
EOF
