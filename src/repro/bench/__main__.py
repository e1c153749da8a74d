"""Run the paper-reproduction experiments from the command line.

    python -m repro.bench                       # run everything once
    python -m repro.bench E1 E6                 # run a subset
    python -m repro.bench --list                # show what exists
    python -m repro.bench --scale quick         # E17 at its per-PR scale
    python -m repro.bench --seeds 10 --scale quick   # the seed tables

Each experiment prints its table and claim results; a non-zero exit code
means some claim failed.  Tables land in benchmarks/results/ (or
``$REPRO_RESULTS_DIR``).  A plain run of everything reproduces each
committed ``eNN.txt`` byte for byte; ``--scale quick`` rewrites
``e17.txt`` at the quick scale.

``--seeds N`` is a sweep and nothing else: each experiment runs under
perturbation seeds 0..N-1 (sharded across ``--jobs`` host processes),
every paper claim must hold under every seed, and the per-seed values
land in ``eNN.seeds.txt`` beside ``eNN.txt``, which it leaves alone.
``--seeds 10 --scale quick`` reproduces each committed
``eNN.seeds.txt`` byte for byte, whatever ``--jobs``.  Host speed is
measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import sys

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.stats import run_sweep


def _list_experiments() -> int:
    for eid, func in ALL_EXPERIMENTS.items():
        doc = (func.__doc__ or "").strip().splitlines()
        print("%-4s %s" % (eid, doc[0] if doc else func.__name__))
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("eids", nargs="*", metavar="EID",
                        help="experiments to run (default: all)")
    parser.add_argument("--list", "-l", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--seeds", type=int, default=0, metavar="N",
                        help="instead of the default schedule, run each "
                             "experiment under perturbation seeds 0..N-1 "
                             "and write its eNN.seeds.txt")
    parser.add_argument("--jobs", type=int, default=None, metavar="J",
                        help="host processes for the seed sweep "
                             "(default: min(seeds, cpu_count))")
    parser.add_argument("--scale", choices=("full", "quick"), default=None,
                        help="workload scale for experiments that take "
                             "one (E17): full for nightly/acceptance "
                             "runs, quick for per-PR CI")
    args = parser.parse_args(argv[1:])

    if args.list:
        return _list_experiments()

    chosen = [eid.upper() for eid in args.eids] or list(ALL_EXPERIMENTS)
    unknown = [eid for eid in chosen if eid not in ALL_EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown))
        print("available: %s" % ", ".join(ALL_EXPERIMENTS))
        return 2

    failures = 0
    for eid in chosen:
        func = ALL_EXPERIMENTS[eid]
        params = inspect.signature(func).parameters
        kwargs = {}
        if "scale" in params:
            kwargs["scale"] = args.scale or params["scale"].default
        if args.seeds > 0:
            sweep = run_sweep(eid, nseeds=args.seeds, jobs=args.jobs, **kwargs)
            sweep.save()
            failures += len(sweep.failed_claims)
        else:
            result = func(**kwargs)
            result.save()
            failures += sum(1 for claim in result.claims if not claim.holds)

    if failures:
        print("%d claim(s) FAILED" % failures)
        return 1
    print("all claims hold")
    return 0


if __name__ == "__main__":
    # Host-side tuning, only in a process the bench owns: it is
    # short-lived, so cyclic garbage (generator frames, proc parent/child
    # links) is reclaimed at exit anyway, while collector pauses otherwise
    # cost the event-dense experiments 10-20% of their run time.
    gc.disable()
    sys.exit(main(sys.argv))
