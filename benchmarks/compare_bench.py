"""Compare two BENCH_*.json files and gate on a metric regression.

CI's ``bench-stats`` job runs this after its seed sweeps: the previous
``main`` run's artifact is the baseline, the fresh result is the
candidate.  Stdlib only, exit codes: 0 OK (or no baseline to compare),
1 regression, 2 usage error.

Two gating modes:

* **CI overlap** (preferred): when both files carry multi-seed
  bootstrap intervals under ``"stats"`` (written by ``python -m
  repro.bench --seeds N``), the gate fails only when the candidate's
  confidence interval is *entirely* on the wrong side of the
  baseline's — a statistically-resolved regression, immune to
  single-seed luck.
* **Threshold** (fallback): without stats on both sides, the watched
  metric failing by more than ``--threshold`` relative (0.25 = +25%)
  fails the job, as before.

Every metric present in both files is reported in the delta table;
only ``--metric`` on the ``--gate`` row decides pass/fail.

    python benchmarks/compare_bench.py \
        --previous prev-stats/BENCH_E15.json \
        --current bench-stats-artifacts/BENCH_E15.json \
        --key scheduler --gate percpu \
        --metric scan_per_pick

    python benchmarks/compare_bench.py \
        --previous prev-stats/BENCH_E16.json \
        --current bench-stats-artifacts/BENCH_E16.json \
        --key vm_index --gate indexed \
        --metric scan_per_fault

``--host`` instead compares two perfbench summaries — the JSON line
``perfbench/run.py --trace 0`` prints last — on
``metrics.sim_cycles_per_host_sec.value`` (direction: higher is
better).  The default threshold (0.35) tolerates shared-runner noise
but not a real regression of the simulator's host speed:

    python benchmarks/compare_bench.py --host \
        --previous prev-stats/PERF_server.json \
        --current bench-stats-artifacts/PERF_server.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _load_rows(path, key):
    with open(path) as handle:
        data = json.load(handle)
    rows = {}
    for row in data.get("rows", []):
        if key in row:
            rows[str(row[key])] = row
    return data, rows


def _numeric_columns(columns, rows, key):
    numeric = []
    for column in columns:
        if column == key:
            continue
        values = [row.get(column) for row in rows.values()]
        if values and all(isinstance(value, (int, float)) for value in values):
            numeric.append(column)
    return numeric


def _render_table(key, columns, prev_rows, cur_rows):
    lines = []
    header = "%-12s %-16s %14s %14s %9s" % (key, "metric", "before", "after", "delta")
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(set(prev_rows) | set(cur_rows)):
        prev, cur = prev_rows.get(name), cur_rows.get(name)
        for column in columns:
            before = prev.get(column) if prev else None
            after = cur.get(column) if cur else None
            if before is None and after is None:
                continue
            if isinstance(before, (int, float)) and before:
                delta = "%+.1f%%" % (100.0 * ((after or 0) - before) / before)
            else:
                delta = "n/a"
            lines.append(
                "%-12s %-16s %14s %14s %9s"
                % (name, column,
                   "-" if before is None else before,
                   "-" if after is None else after, delta)
            )
    return "\n".join(lines)


def _stat(data, gate, metric):
    """The bootstrap summary for (gate row, metric), if the file has one."""
    stat = data.get("stats", {}).get(gate, {}).get(metric)
    if (
        isinstance(stat, dict)
        and isinstance(stat.get("ci_lo"), (int, float))
        and isinstance(stat.get("ci_hi"), (int, float))
        and isinstance(stat.get("mean"), (int, float))
    ):
        return stat
    return None


def _gate_ci_overlap(gate, metric, before, after, direction) -> int:
    """Fail only when the candidate CI clears the baseline CI entirely."""
    fmt = "[%.4g, %.4g] (mean %.4g, n=%d)"
    print(
        "gate (CI overlap, %s is better): %s.%s\n  baseline  %s\n  candidate %s"
        % (direction, gate, metric,
           fmt % (before["ci_lo"], before["ci_hi"], before["mean"],
                  before.get("n", 0)),
           fmt % (after["ci_lo"], after["ci_hi"], after["mean"],
                  after.get("n", 0)))
    )
    if direction == "lower":
        worse = after["ci_lo"] > before["ci_hi"]
    else:
        worse = after["ci_hi"] < before["ci_lo"]
    print("  verdict: %s" % ("REGRESSION" if worse else "ok"))
    return 1 if worse else 0


def _gate_threshold(gate, metric, before, after, threshold, direction) -> int:
    if before <= 0:
        print("baseline %s=%r not positive - passing" % (metric, before))
        return 0
    if direction == "lower":
        limit = before * (1.0 + threshold)
        worse = after > limit
    else:
        limit = before * (1.0 - threshold)
        worse = after < limit
    print(
        "gate (threshold, %s is better): %s.%s %.4g -> %.4g "
        "(limit %.4g, %.0f%%): %s"
        % (direction, gate, metric, before, after, limit,
           threshold * 100, "REGRESSION" if worse else "ok")
    )
    return 1 if worse else 0


def _host_rate(path):
    """A perfbench summary's ``sim_cycles_per_host_sec``, or None."""
    with open(path) as handle:
        data = json.load(handle)
    metric = data.get("metrics", {}).get("sim_cycles_per_host_sec", {})
    value = metric.get("value")
    return value if isinstance(value, (int, float)) else None


def _compare_host(args) -> int:
    before = _host_rate(args.previous)
    after = _host_rate(args.current)
    if before is None or after is None:
        print("sim_cycles_per_host_sec missing on one side - passing")
        return 0
    print("host speed: %.0f -> %.0f sim cycles/host-sec" % (before, after))
    return _gate_threshold("host", "sim_cycles_per_host_sec",
                           before, after, args.threshold, "higher")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--previous", required=True, help="baseline JSON path")
    parser.add_argument("--current", required=True, help="candidate JSON path")
    parser.add_argument("--key", default="scheduler", help="row-identity column")
    parser.add_argument("--gate", default="percpu", help="row to gate on")
    parser.add_argument("--metric", default="scan_per_pick",
                        help="metric that must not regress")
    parser.add_argument("--direction", choices=("lower", "higher"),
                        default="lower",
                        help="which way is better for --metric")
    parser.add_argument("--threshold", type=float, default=None,
                        help="allowed relative change when no CIs "
                             "(default 0.25; 0.35 with --host)")
    parser.add_argument("--host", action="store_true",
                        help="compare two perfbench JSON summaries on "
                             "sim_cycles_per_host_sec (higher is better)")
    args = parser.parse_args(argv)
    # --host gates one single-shot perfbench run per workload: 0.35
    # clears shared-runner noise while still catching a regression of
    # about a third (0.5 let half a speedup evaporate silently)
    if args.threshold is None:
        args.threshold = 0.35 if args.host else 0.25

    if not os.path.exists(args.current):
        print("candidate result %s missing" % args.current, file=sys.stderr)
        return 2
    if not os.path.exists(args.previous):
        print("no baseline at %s - nothing to compare, passing" % args.previous)
        return 0

    if args.host:
        return _compare_host(args)

    prev_data, prev_rows = _load_rows(args.previous, args.key)
    cur_data, cur_rows = _load_rows(args.current, args.key)
    columns = _numeric_columns(cur_data.get("columns", []), cur_rows, args.key)
    print(_render_table(args.key, columns, prev_rows, cur_rows))

    prev_row = prev_rows.get(args.gate)
    cur_row = cur_rows.get(args.gate)
    if prev_row is None or cur_row is None:
        print("gate row %r absent from one side - passing" % args.gate)
        return 0

    before_stat = _stat(prev_data, args.gate, args.metric)
    after_stat = _stat(cur_data, args.gate, args.metric)
    if before_stat is not None and after_stat is not None:
        return _gate_ci_overlap(args.gate, args.metric,
                                before_stat, after_stat, args.direction)

    before = prev_row.get(args.metric)
    after = cur_row.get(args.metric)
    if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
        print("metric %r not numeric on both sides - passing" % args.metric)
        return 0
    return _gate_threshold(args.gate, args.metric, before, after,
                           args.threshold, args.direction)


if __name__ == "__main__":
    sys.exit(main())
