#!/usr/bin/env python3
"""Serve-plane benchmark of the LATEST daemon.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the repository's library sources) into $CARGO_TARGET_DIR or .bench_build,
then runs one workload:

  perfbench_client   starts perfbench_server processes, times their
                     set-up, checks served answers against a direct module
                     replay, and drives the timed run (open or closed loop,
                     4 connections, one poll() thread);
  perfbench_layers   with --trace 1 only: the traced layer-by-layer run.

The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Traces and ledgers go to <build dir>/traces/.

Usage:
  python3 perfbench/run.py --workload steady_keyword --seed 1 \\
      --seconds 10 --trace 0
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
BINARIES = ("perfbench_server", "perfbench_client", "perfbench_layers")

WORKLOADS = ("steady_keyword", "saturate_flip", "burst_durable", "shadow_eval")

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("throughput_eps", "events/s"),
    ("mean_accuracy", "ratio"),
    ("tau_hit_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

ESTIMATORS = ("H4096", "RSL", "RSH", "AASP", "FFN", "SPN")

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("client.send_lag_p99_ms", "ms"),
    ("client.cpu_us_per_event", "us/event"),
    ("net.serve.cpu_us_per_event", "us/event"),
    ("net.io.status_rtt_p50_us", "us"),
    ("net.io.status_rtt_p99_us", "us"),
    ("net.protocol.encode_query_ns", "ns"),
    ("net.protocol.decode_query_ns", "ns"),
    ("net.protocol.decode_ingest_ns", "ns"),
    ("net.protocol.encode_response_ns", "ns"),
    ("net.protocol.frame_reader_ns", "ns"),
    ("net.batcher.wait_p50_us", "us"),
    ("net.batcher.wait_p99_us", "us"),
    ("net.batcher.fill_ratio", "ratio"),
    ("net.batcher.batch_queries_mean", "count"),
    ("net.batcher.shed_frac", "ratio"),
    ("core.create_ms", "ms"),
    ("core.on_object_us", "us"),
    ("core.on_query_batch_us_per_query", "us"),
    ("obs.quality_tax_pct", "%"),
    ("exact.insert_ns", "ns"),
    ("exact.truth_us_per_query.spatial", "us"),
    ("exact.truth_us_per_query.keyword", "us"),
    ("exact.truth_us_per_query.hybrid", "us"),
    ("exact.truth_batch_us_per_query.spatial", "us"),
    ("exact.truth_batch_us_per_query.keyword", "us"),
    ("exact.truth_batch_us_per_query.hybrid", "us"),
) + tuple(
    (f"estimators.{kind}.{op}_ns", "ns")
    for kind in ESTIMATORS
    for op in ("estimate", "insert")
) + (
    ("ml.tree_train_ns", "ns"),
    ("ml.tree_predict_ns", "ns"),
    ("persist.wal_append_us", "us"),
    ("persist.fsyncs_per_kevent", "1/kevent"),
    ("persist.wal_bytes_per_event", "B/event"),
    ("persist.snapshot_ms", "ms"),
    ("ledger.unattributed_pct", "%"),
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"perfbench: {what} printed no result")
    return json.loads(lines[-1])


def build(build_dir):
    """Configures once and builds the three programs (incremental)."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure until a configure has completed (it writes Makefile
        # last); later runs only rebuild what changed.
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", PKG, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", "4", "--target", *BINARIES],
            check=True, stdout=sys.stderr)


def ledger(client, layers):
    """Client query p50 against the sum of the layers it passes through.

    Open loop: send lag + one IO round trip (STATUS RTT) + batcher wait +
    the module time of a whole batch (every response of a batch is
    flushed after the batch). Closed loop: the outstanding window times
    the batch thread's cost per event, since each request waits for
    everything admitted before it.
    """
    lm, lg = layers["metrics"], layers["ledger"]
    p50_ms = client["query_p50_ms"]
    object_us = lg["persist_on_object_us"] or lg["on_object_us"]
    if client["outstanding_window"] > 0:
        events = lg["batch_ingests_mean"] + lg["batch_queries_mean"]
        query_share = lg["batch_queries_mean"] / events if events else 0.0
        per_event_us = (query_share * lg["on_query_us"]
                        + (1 - query_share) * object_us
                        + lm["net.protocol.encode_response_ns"] / 1e3)
        parts = {"queue_ahead_ms":
                 client["outstanding_window"] * per_event_us / 1e3}
    else:
        parts = {
            "send_lag_ms": client["send_lag_p50_ms"],
            "io_rtt_ms": client["status_rtt_p50_us"] / 1e3,
            "batcher_wait_ms": lm["net.batcher.wait_p50_us"] / 1e3,
            "module_batch_ms": (lg["batch_ingests_mean"] * object_us
                                + lg["batch_queries_mean"] * lg["on_query_us"])
                               / 1e3,
        }
    explained = sum(parts.values())
    unattributed = 100.0 * (p50_ms - explained) / p50_ms if p50_ms else 0.0
    return unattributed, dict(parts, query_p50_ms=p50_ms)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    bin_of = {name: os.path.join(build_dir, name) for name in BINARIES}
    work_dir = os.path.join(build_dir, "runs")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir]
    client_run = subprocess.run(
        [bin_of["perfbench_client"], *common, "--seconds", str(args.seconds),
         "--server-bin", bin_of["perfbench_server"],
         "--probes", str(args.trace)],
        check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    result = last_json_line(client_run.stdout, "perfbench_client")
    client = dict(result["client"], **result["metrics"])
    log("perfbench: client", json.dumps(result["client"]))

    if args.trace:
        # One trace per workload, overwritten by the next traced run.
        stem = os.path.join(trace_dir, args.workload)
        layers_run = subprocess.run(
            [bin_of["perfbench_layers"], *common,
             "--trace-out", stem + ".trace.json"],
            check=True, stdout=subprocess.PIPE, text=True, timeout=50)
        layers = last_json_line(layers_run.stdout, "perfbench_layers")
        unattributed, parts = ledger(client, layers)
        with open(stem + ".ledger.json", "w") as out:
            json.dump({"ledger": parts, "unattributed_pct": unattributed,
                       "self_ms": layers["self_ms"]}, out, indent=1)
        values = dict(layers["metrics"])
        values["client.send_lag_p99_ms"] = client["send_lag_p99_ms"]
        values["client.cpu_us_per_event"] = client["cpu_us_per_event"]
        values["net.serve.cpu_us_per_event"] = client["server_cpu_us_per_event"]
        values["net.io.status_rtt_p50_us"] = client["status_rtt_p50_us"]
        values["net.io.status_rtt_p99_us"] = client["status_rtt_p99_us"]
        values["ledger.unattributed_pct"] = unattributed
        table = PER_LAYER
        log("perfbench: ledger", json.dumps(parts),
            f"unattributed_pct={unattributed:.1f}")
    else:
        values = result["metrics"]
        table = END_TO_END

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }))


if __name__ == "__main__":
    main()
