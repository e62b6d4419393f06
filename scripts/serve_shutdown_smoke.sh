#!/usr/bin/env bash
# Serve shutdown-under-scrape smoke. Boots latest_serve with introspection
# on, floods it with latest_loadgen for about two seconds while scraping
# /requestz and /tracez as fast as they answer, then sends SIGTERM in the
# middle of the scraping and requires a clean exit (status 0, a final
# RESULT_JSON line). Built with -fsanitize=thread and run with
# TSAN_OPTIONS=halt_on_error=1, it checks that shutdown frees nothing the
# introspection thread may still read (the request-trace store, the span
# collector, the profiler).
#
# Usage: scripts/serve_shutdown_smoke.sh <build-dir> [flood-seconds]
set -euo pipefail

BUILD_DIR="${1:-build}"
FLOOD_SECONDS="${2:-2}"
SERVE_BIN="$BUILD_DIR/tools/latest_serve"
LOADGEN_BIN="$BUILD_DIR/tools/latest_loadgen"
for bin in "$SERVE_BIN" "$LOADGEN_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target latest_serve latest_loadgen)" >&2
    exit 1
  fi
done

WORK_DIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

RPC_PORT=18094
METRICS_PORT=18095
HTTP="http://127.0.0.1:$METRICS_PORT"

"$SERVE_BIN" --port "$RPC_PORT" --metrics-port "$METRICS_PORT" \
  --run-for-ms 600000 >"$WORK_DIR/serve.log" 2>"$WORK_DIR/serve.err" &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
for _ in $(seq 1 150); do
  grep -q SERVE_READY "$WORK_DIR/serve.log" && break
  sleep 0.2
done
if ! grep -q SERVE_READY "$WORK_DIR/serve.log"; then
  echo "error: no SERVE_READY" >&2
  cat "$WORK_DIR/serve.err" >&2
  exit 1
fi

# Flood: back-to-back short loadgen runs until the time is up.
END=$((SECONDS + FLOOD_SECONDS))
(
  while ((SECONDS < END)); do
    "$LOADGEN_BIN" --port "$RPC_PORT" --connections 8 --scenario flip \
      --objects 4000 --duration 2000 >/dev/null || true
  done
) &
FLOOD_PID=$!
PIDS+=("$FLOOD_PID")

# Scrapers: keep the introspection thread inside the trace-store and
# span-collector pages for the whole flood and across the SIGTERM.
(
  while true; do
    curl -s -m 5 "$HTTP/requestz?json" >/dev/null || true
    curl -s -m 5 "$HTTP/tracez?dump" >/dev/null || true
  done
) &
SCRAPE_PID=$!
PIDS+=("$SCRAPE_PID")

wait "$FLOOD_PID"
kill -TERM "$SERVE_PID"
STATUS=0
wait "$SERVE_PID" || STATUS=$?
kill "$SCRAPE_PID" 2>/dev/null || true
wait "$SCRAPE_PID" 2>/dev/null || true

if [[ "$STATUS" -ne 0 ]]; then
  echo "error: latest_serve exited with status $STATUS" >&2
  cat "$WORK_DIR/serve.err" >&2
  exit 1
fi
if ! grep -q '^RESULT_JSON' "$WORK_DIR/serve.log"; then
  echo "error: latest_serve printed no RESULT_JSON" >&2
  exit 1
fi
grep '^RESULT_JSON' "$WORK_DIR/serve.log"
echo "serve shutdown smoke ok"
