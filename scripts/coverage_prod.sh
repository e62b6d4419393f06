#!/usr/bin/env bash
# Production coverage: which functions in src/ and tools/ does no shipped
# entry point run?
#
# Builds <build-dir> with gcov instrumentation (-O0 --coverage; the test
# binaries are built but never run, so header functions only a test
# instantiates show up with a zero count), and builds the serve-plane
# benchmark into <build-dir>/perfbench the same way. Then it runs the
# entry points CI and the benchmark run, never ctest:
#   - every bench/ binary at LATEST_BENCH_SCALE=0.05 (the CI bench smoke
#     and bench-regression sequence are among them),
#   - every example, every catalog scenario through latest_scenario_run,
#   - the drift smoke and the traced stream run with its endpoint scrape,
#   - scripts/crash_recovery_smoke.sh, serve_smoke.sh and
#     serve_shutdown_smoke.sh,
#   - perfbench/run.py on each workload for 2 s, and once with --trace 1.
# An entry point that exits non-zero is reported and the run goes on:
# this script measures what runs, the other CI jobs judge the results.
#
# It prints the zero-count function and line totals and writes every
# zero-count function to <build-dir>/coverage/zero_functions.txt.
#
# --check also exits 1 when a zero-count function matches no entry of
# scripts/coverage_allow.txt, when an entry matches no function at all
# (it names code that is gone), when an entry has no reason, or when the
# list has more than 40 entries. Entry format, one per line:
#   <file glob> <function glob>[ | <function glob>...] -- <reason>
# Globs are fnmatch patterns; a function glob matches the demangled name
# with its parameter list and may contain spaces. Each alternative must
# match some function.
#
# Usage: scripts/coverage_prod.sh <build-dir> [--check]
set -uo pipefail

BUILD_DIR="${1:?usage: scripts/coverage_prod.sh <build-dir> [--check]}"
CHECK=0
[[ "${2:-}" == "--check" ]] && CHECK=1
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$BUILD_DIR"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"
PERF_DIR="$BUILD_DIR/perfbench"
OUT_DIR="$BUILD_DIR/coverage"
JOBS="$(nproc)"

set -e
# Counts left by an earlier build would make the new binaries warn.
find "$BUILD_DIR" -name '*.gcda' -delete
cmake -S "$ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" >/dev/null
set +e

# Test discovery ran the test binaries during the build: drop their
# counts, so only the entry points below count.
find "$BUILD_DIR" -name '*.gcda' -delete
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR/logs"

FAILED=()
run() {  # run <label> <command...>: log to $OUT_DIR/logs/<label>.log
  local label="$1"
  shift
  echo "-- $label"
  if ! "$@" >"$OUT_DIR/logs/$label.log" 2>&1; then
    echo "   exited non-zero (log: $OUT_DIR/logs/$label.log)"
    FAILED+=("$label")
  fi
}

cd "$OUT_DIR"
export LATEST_BENCH_SCALE=0.05
for bench in "$BUILD_DIR"/bench/bench_*; do
  [[ -x "$bench" && -f "$bench" ]] || continue
  name="$(basename "$bench")"
  if [[ "$name" == bench_micro_estimators ]]; then
    run "$name" "$bench" --benchmark_min_time=0.01
  else
    run "$name" "$bench"
  fi
done
unset LATEST_BENCH_SCALE

run example_quickstart "$BUILD_DIR/examples/quickstart"
run example_csv_replay "$BUILD_DIR/examples/csv_replay"
run example_disaster_monitoring "$BUILD_DIR/examples/disaster_monitoring"
run example_targeted_advertising "$BUILD_DIR/examples/targeted_advertising"
run example_workload_explorer "$BUILD_DIR/examples/workload_explorer" \
  twitter TwQW1 0.5 3000

SCENARIO_BIN="$BUILD_DIR/tools/latest_scenario_run"
for scenario in $("$SCENARIO_BIN" --list | awk '{print $1}'); do
  run "scenario_$scenario" "$SCENARIO_BIN" --scenario "$scenario"
done

STREAM_BIN="$BUILD_DIR/tools/latest_stream_run"
run drift_stationary "$STREAM_BIN" --objects 16000 --duration 8000
run drift_flipped "$STREAM_BIN" --objects 16000 --duration 8000 \
  --flip-workload-at 8000

traced_stream_run() {
  "$STREAM_BIN" --objects 20000 --metrics-port 18080 \
    --trace-out "$OUT_DIR/trace.json" --pace-us 50 &
  local pid=$!
  local status=0
  for _ in $(seq 1 100); do
    curl -sf "http://127.0.0.1:18080/metrics" >/dev/null && break
    sleep 0.1
  done
  for endpoint in metrics healthz statusz tracez; do
    curl -sf "http://127.0.0.1:18080/$endpoint" >/dev/null || status=1
  done
  wait "$pid" || status=1
  return "$status"
}
run traced_stream_run traced_stream_run

run crash_recovery_smoke "$ROOT/scripts/crash_recovery_smoke.sh" "$BUILD_DIR"
run serve_smoke "$ROOT/scripts/serve_smoke.sh" "$BUILD_DIR"
run serve_shutdown_smoke "$ROOT/scripts/serve_shutdown_smoke.sh" \
  "$BUILD_DIR" 2

# perfbench/run.py configures its tree once, from the CXXFLAGS of the
# first configure. It builds Release; -fno-inline keeps every function's
# own counters, so a call the optimiser would inline still counts.
perfbench() {
  CARGO_TARGET_DIR="$PERF_DIR" CXXFLAGS="--coverage -fno-inline" \
    LDFLAGS="--coverage" python3 "$ROOT/perfbench/run.py" "$@"
}
for workload in steady_keyword saturate_flip burst_durable shadow_eval; do
  run "perfbench_$workload" perfbench --workload "$workload" --seed 1 \
    --seconds 2 --trace 0
done
run perfbench_steady_keyword_trace perfbench --workload steady_keyword \
  --seed 1 --seconds 2 --trace 1

if ((${#FAILED[@]})); then
  echo "entry points that exited non-zero: ${FAILED[*]}"
fi

# Every object file of both trees, through gcov's JSON output.
find "$BUILD_DIR" -name '*.gcno' -print0 |
  xargs -0 -n 32 gcov --json-format --stdout >"$OUT_DIR/gcov.jsonl" \
    2>"$OUT_DIR/gcov.err"

python3 - "$ROOT" "$OUT_DIR" "$CHECK" <<'EOF'
import fnmatch, json, os, sys

root, out_dir, check = sys.argv[1], sys.argv[2], sys.argv[3] == "1"

def in_scope(path):
    rel = os.path.relpath(os.path.realpath(path), root)
    return rel if rel.startswith(("src/", "tools/")) else None

# A function or line ran if it ran in any object that compiles it. A
# function is its definition (file, first line): template instances and
# constructor variants of one definition count together.
functions = {}  # (file, line) -> [count, {demangled names}]
lines = {}      # (file, line) -> count
with open(os.path.join(out_dir, "gcov.jsonl")) as stream:
    for raw in stream:
        raw = raw.strip()
        if not raw.startswith("{"):
            continue
        for unit in json.loads(raw).get("files", []):
            rel = in_scope(unit["file"])
            if rel is None:
                continue
            for fn in unit.get("functions", []):
                slot = functions.setdefault((rel, fn["start_line"]),
                                            [0, set()])
                slot[0] += fn["execution_count"]
                slot[1].add(fn["demangled_name"])
            for line in unit.get("lines", []):
                key = (rel, line["line_number"])
                lines[key] = lines.get(key, 0) + line["count"]

zero = sorted((f, line, sorted(slot[1])) for (f, line), slot
              in functions.items() if slot[0] == 0)
zero_lines = sum(1 for count in lines.values() if count == 0)
with open(os.path.join(out_dir, "zero_functions.txt"), "w") as listing:
    for f, line, names in zero:
        listing.write(f"{f}:{line} {names[0]}\n")
print(f"zero-count functions: {len(zero)} of {len(functions)}")
print(f"zero-count lines: {zero_lines} of {len(lines)}")
if not check:
    for f, line, names in zero:
        print(f"  {f}:{line} {names[0]}")
    sys.exit(0)

errors = []
entries = []
allow_path = os.path.join(root, "scripts", "coverage_allow.txt")
for number, text in enumerate(open(allow_path), 1):
    text = text.strip()
    if not text or text.startswith("#"):
        continue
    pattern, sep, reason = text.partition(" -- ")
    parts = pattern.split(None, 1)
    if not sep or not reason.strip() or len(parts) != 2:
        errors.append(f"coverage_allow.txt:{number}: want "
                      f"'<file glob> <function glob> -- <reason>'")
        continue
    for name_glob in parts[1].split(" | "):
        entries.append((number, parts[0], name_glob.strip()))
entry_lines = {entry[0] for entry in entries}
if len(entry_lines) > 40:
    errors.append(f"coverage_allow.txt has {len(entry_lines)} entries "
                  f"(max 40)")

def matches(entry, f, names):
    _, file_glob, name_glob = entry
    return fnmatch.fnmatchcase(f, file_glob) and \
        any(fnmatch.fnmatchcase(name, name_glob) for name in names)

for entry in entries:
    if not any(matches(entry, f, slot[1])
               for (f, _), slot in functions.items()):
        errors.append(f"coverage_allow.txt:{entry[0]}: '{entry[1]} "
                      f"{entry[2]}' matches no function")
for f, line, names in zero:
    if not any(matches(entry, f, names) for entry in entries):
        errors.append(f"not run and not allowed: {f}:{line} {names[0]}")
for error in errors:
    print(error)
print("coverage check " + ("FAILED" if errors else "ok"))
sys.exit(1 if errors else 0)
EOF
