"""Compare two perfbench summaries and gate on the simulator's host speed.

CI's ``bench-stats`` job runs this after one perfbench run per
workload: the previous ``main`` run's ``PERF_<workload>.json`` artifact
is the baseline, the fresh summary (the JSON line ``perfbench/run.py
--trace 0`` prints last) is the candidate.  The gate reads
``metrics.sim_cycles_per_host_sec.value`` (higher is better) and fails
when the candidate falls more than 35% below the baseline.  Stdlib
only; exit codes: 0 OK (or no baseline to compare), 1 regression, 2
usage error.

    python benchmarks/compare_bench.py \
        --previous prev-stats/PERF_server.json \
        --current bench-stats-artifacts/PERF_server.json

Simulated numbers are not compared here: they are deterministic per
seed, and CI diffs them against the committed ``benchmarks/results``
tables instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: one single-shot perfbench run per workload: 0.35 clears shared-runner
#: noise while still catching a regression of about a third (0.5 let
#: half a speedup evaporate silently)
THRESHOLD = 0.35


def _host_rate(path):
    """A perfbench summary's ``sim_cycles_per_host_sec``, or None."""
    with open(path) as handle:
        data = json.load(handle)
    metric = data.get("metrics", {}).get("sim_cycles_per_host_sec", {})
    value = metric.get("value")
    return value if isinstance(value, (int, float)) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--previous", required=True,
                        help="baseline perfbench summary")
    parser.add_argument("--current", required=True,
                        help="candidate perfbench summary")
    args = parser.parse_args(argv)

    if not os.path.exists(args.current):
        print("candidate result %s missing" % args.current, file=sys.stderr)
        return 2
    if not os.path.exists(args.previous):
        print("no baseline at %s - nothing to compare, passing" % args.previous)
        return 0

    before = _host_rate(args.previous)
    after = _host_rate(args.current)
    if before is None or after is None:
        print("sim_cycles_per_host_sec missing on one side - passing")
        return 0
    if before <= 0:
        print("baseline sim_cycles_per_host_sec=%r not positive - passing"
              % before)
        return 0
    limit = before * (1.0 - THRESHOLD)
    worse = after < limit
    print(
        "host speed: %.0f -> %.0f sim cycles/host-sec (limit %.0f, %.0f%%): %s"
        % (before, after, limit, THRESHOLD * 100,
           "REGRESSION" if worse else "ok")
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
