#!/usr/bin/env python3
"""Compare bench RESULT_JSON output against a checked-in baseline.

Every bench harness prints one or more ``RESULT_JSON {...}`` lines. This
script parses those lines out of bench logs (or accepts a previously
written baseline file), matches each record to the corresponding baseline
record, and applies per-metric tolerance bands:

* throughput-style metrics (objects/s, queries/s) regress when they drop
  more than the band below baseline;
* cost-style metrics (ns/op) regress when they rise more than the band
  above baseline;
* everything else is informational — printed, never failing, because
  values like fsync-bound throughput or wall-clock seconds are too
  machine-dependent to gate on.

Records whose workload context differs from the baseline (object or
query counts — i.e. a different LATEST_BENCH_SCALE) are skipped with a
warning rather than compared apples-to-oranges.

Usage:
    bench_regress.py --baseline BENCH_baseline.json log1 [log2 ...]
    bench_regress.py --baseline BENCH_baseline.json --update log1 [...]

Exit status: 0 when every gated metric is inside its band (or --update),
1 on any regression, 2 on usage/parse errors.
"""

import argparse
import json
import os
import sys

RESULT_PREFIX = "RESULT_JSON "

# metric -> (direction, relative tolerance). "higher" means larger is
# better (fail when current < baseline * (1 - tol)); "lower" means
# smaller is better (fail when current > baseline * (1 + tol)).
# The 0.30 band on ingest throughput is the CI gate the repo documents:
# a >30% drop fails the build. Micro benches and fsync-bound paths get
# wider bands — they are noisier on shared runners.
METRIC_SPECS = {
    "ingest_objects_per_s": ("higher", 0.30),
    "spatial_qps": ("higher", 0.30),
    "keyword_qps": ("higher", 0.30),
    "mixed_qps": ("higher", 0.30),
    "exact_eval_qps": ("higher", 0.30),
    "pretrain_qps": ("higher", 0.35),
    "ns_per_op": ("lower", 0.50),
    "ingest_base_ops": ("higher", 0.35),
    "ingest_wal_group_ops": ("higher", 0.40),
    # Estimation-quality gates from the switching benches. Unlike the
    # rate metrics above, accuracy is deterministic for a fixed workload
    # seed, so the bands are tight: they catch an estimator or switching
    # regression, not machine noise.
    "mean_accuracy": ("higher", 0.05),
    "tau_hit_rate": ("higher", 0.10),
    # Scenario-replay drift gates (bench_scenario_recovery /
    # latest_scenario_run). Deterministic for a fixed seed and scale:
    # a slower detection or recovery is a real sensitivity regression.
    "detection_delay_queries_max": ("lower", 0.50),
    "recover_slices_max": ("lower", 1.00),
    # SIMD batch-evaluation gates (bench_batch_query plus the batched
    # columns of bench_ingest_throughput). Rates take the standard
    # throughput band; the spatial batch/scalar speedup is the kernel
    # layer's headline >=3x claim and gets a tight band of its own —
    # being a ratio of two rates from the same run, it cancels most
    # machine noise, and it is the one number a batch-path regression
    # cannot hide behind a generally-faster runner.
    "spatial_scalar_qps": ("higher", 0.35),
    "keyword_scalar_qps": ("higher", 0.35),
    "mixed_scalar_qps": ("higher", 0.35),
    "batch_spatial_qps": ("higher", 0.35),
    "batch_keyword_qps": ("higher", 0.35),
    "batch_mixed_qps": ("higher", 0.35),
    "batch_exact_eval_qps": ("higher", 0.35),
    "batch_spatial_speedup": ("higher", 0.12),
    "hist_insert_scalar_ops": ("higher", 0.35),
    "hist_insert_batch_ops": ("higher", 0.35),
}

# Context fields that define the workload shape: when these differ from
# the baseline the scales differ and rate comparisons are meaningless.
# incremental_queries plays that role for the timeline (switching)
# benches: a different LATEST_BENCH_SCALE changes the query volume and
# with it the accuracy trajectory.
CONTEXT_FIELDS = ("objects", "pretrain_queries", "incremental_queries")


def parse_result_lines(path):
    """Yields the JSON payload of every RESULT_JSON line in `path`."""
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line.startswith(RESULT_PREFIX):
                continue
            try:
                yield json.loads(line[len(RESULT_PREFIX):])
            except json.JSONDecodeError as error:
                raise SystemExit(
                    f"{path}:{line_number}: unparseable RESULT_JSON: {error}"
                )


def flatten(record):
    """Splits one RESULT_JSON record into keyed flat records.

    micro_estimators nests a benchmark list; each entry becomes its own
    record keyed by benchmark name.
    """
    experiment = record.get("experiment", "<unknown>")
    if experiment == "micro_estimators":
        for bench in record.get("benchmarks", []):
            yield (experiment, bench["name"]), {"ns_per_op": bench["ns_per_op"]}
        return
    discriminator = str(record.get("point", ""))
    yield (experiment, discriminator), dict(record)


def collect(paths):
    """Flat {key: record} map over all RESULT_JSON lines in `paths`."""
    out = {}
    for path in paths:
        for record in parse_result_lines(path):
            for key, flat in flatten(record):
                out[key] = flat
    return out


def key_name(key):
    experiment, discriminator = key
    return f"{experiment}[{discriminator}]" if discriminator else experiment


def compare(baseline, current):
    """Prints a comparison table; returns the list of regression strings."""
    regressions = []
    for key, base_record in sorted(baseline.items()):
        name = key_name(key)
        cur_record = current.get(key)
        if cur_record is None:
            print(f"MISSING  {name}: no current result (bench not run?)")
            regressions.append(f"{name}: missing from current run")
            continue
        mismatched = [
            field
            for field in CONTEXT_FIELDS
            if field in base_record
            and field in cur_record
            and base_record[field] != cur_record[field]
        ]
        if mismatched:
            detail = ", ".join(
                f"{field} {base_record[field]} -> {cur_record[field]}"
                for field in mismatched
            )
            print(f"SKIP     {name}: workload context differs ({detail}); "
                  f"set the same LATEST_BENCH_SCALE as the baseline")
            continue
        for metric, base_value in sorted(base_record.items()):
            if not isinstance(base_value, (int, float)) or isinstance(
                base_value, bool
            ):
                continue
            cur_value = cur_record.get(metric)
            if not isinstance(cur_value, (int, float)):
                continue
            spec = METRIC_SPECS.get(metric)
            ratio = cur_value / base_value if base_value else float("inf")
            if spec is None or metric in CONTEXT_FIELDS:
                print(f"info     {name}.{metric}: {base_value:g} -> "
                      f"{cur_value:g}")
                continue
            direction, tolerance = spec
            if direction == "higher":
                bad = cur_value < base_value * (1.0 - tolerance)
                verb = "dropped"
            else:
                bad = cur_value > base_value * (1.0 + tolerance)
                verb = "rose"
            status = "REGRESS" if bad else "ok"
            print(f"{status:8s} {name}.{metric}: {base_value:g} -> "
                  f"{cur_value:g} ({ratio:.2f}x, band {tolerance:.0%} "
                  f"{direction}-is-better)")
            if bad:
                regressions.append(
                    f"{name}.{metric} {verb} beyond the {tolerance:.0%} "
                    f"band: {base_value:g} -> {cur_value:g}"
                )
    for key in sorted(set(current) - set(baseline)):
        print(f"NEW      {key_name(key)}: no baseline entry (add with "
              f"--update)")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the given logs")
    parser.add_argument("logs", nargs="+",
                        help="bench log files containing RESULT_JSON lines")
    args = parser.parse_args()

    current = collect(args.logs)
    if not current:
        print("error: no RESULT_JSON lines found in the given logs",
              file=sys.stderr)
        return 2

    if args.update:
        payload = {
            "scale": os.environ.get("LATEST_BENCH_SCALE", "1"),
            "records": [
                {"experiment": key[0], "discriminator": key[1], **record}
                for key, record in sorted(current.items())
            ],
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(payload['records'])} records, "
              f"scale {payload['scale']})")
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read baseline {args.baseline}: {error}",
              file=sys.stderr)
        return 2
    baseline = {
        (record["experiment"], record.get("discriminator", "")): {
            k: v
            for k, v in record.items()
            if k not in ("experiment", "discriminator")
        }
        for record in payload.get("records", [])
    }
    expected_scale = payload.get("scale")
    actual_scale = os.environ.get("LATEST_BENCH_SCALE", "1")
    if expected_scale is not None and str(expected_scale) != actual_scale:
        print(f"note: baseline was recorded at LATEST_BENCH_SCALE="
              f"{expected_scale}, current env says {actual_scale}; context "
              f"checks will skip mismatched records")

    regressions = compare(baseline, current)
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for regression in regressions:
            print(f"  - {regression}")
        return 1
    print("\nall gated metrics inside their tolerance bands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
