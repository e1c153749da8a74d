"""Host benchmark of the share-group simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload server --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats set-up + simulation of the seeded workload until
``--seconds`` are spent (at least three times).  Every repetition does
identical simulated work, which the state digest proves, and stops at
the same ``NSLICES`` points of simulated time.  On a shared host,
interference only ever adds time, and it comes and goes over seconds
to minutes, so host times are read against the fixed loop in
``calibrate.py`` and scaled to its reference speed
(``calibrate.NOMINAL_S`` a call):

* ``host_s``: each slice counts at the fastest host time any
  repetition took for it, so short slices each find a quiet moment
  that a whole repetition may not.  The calibration loop runs before
  every slice, and its fastest times, slice by slice, read the speed
  of those moments; a run that found no quiet moment at all still
  reads about the same;
* ``setup_s``: ``SETUP_SAMPLES`` samples of a fresh import plus a
  build per repetition, each divided by the fastest of ``SETUP_CALLS``
  calibration calls made just before it; the median over the run
  counts.

The raw figures are printed beside the scaled ones.
``--trace 1`` runs the workload once untraced and once under the
host-time ledger (``ledger.py``) and reports the per-layer metrics.
Both modes print every figure by name and unit, check the simulated
outputs, and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import calibrate
from ledger import ALL_LAYERS, OUTSIDE, Ledger

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: at least this many timed set-up + simulation repetitions per
#: untraced run, after one untimed warm-up
MIN_REPS = 3
#: equal slices of simulated time that each repetition is timed in
NSLICES = 64
#: set-up samples per repetition
SETUP_SAMPLES = 3
#: calibration calls before each set-up sample; the fastest reads the
#: speed the sample ran at
SETUP_CALLS = 4
#: modules a fresh import reloads: the simulator and the workloads
FRESH = ("repro", "suite")

#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {
    "host_s": "s",
    "sim_cycles_per_host_sec": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
}

#: simulated figures a workload may add, printed but not gated
SIM_UNITS = {
    "sim_req_p50_cycles": "cycles",
    "sim_req_p99_cycles": "cycles",
    "sim_req_batches": "count",
    "sim_throughput_per_kcycle": "req/kcycle",
    "sim_syscall_p50_cycles": "cycles",
    "sim_syscall_p99_cycles": "cycles",
    "sim_syscall_count": "count",
}

#: units of the per-layer simulated counts (``suite.layer_counts``)
COUNT_UNITS = {
    "engine.events": "count",
    "engine.inline_frac": "fraction",
    "cpu.context_switches": "count",
    "cpu.tlb_misses": "count",
    "fault.vm_lookups": "count",
    "fault.pregion_scan_per_lookup": "steps/lookup",
    "vm.shootdown_pages": "count",
    "kernel.syscalls": "count",
    "kernel.sprocs": "count",
    "kernel.sync_entries": "count",
    "share.sync_entry_frac": "fraction",
    "sched.picks": "count",
    "sched.scan_per_pick": "entries/pick",
    "sched.affinity_frac": "fraction",
    "sched.steals": "count",
    "sched.wakeups": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric (``--trace 1``) and its unit."""
    units = {}
    for layer in ALL_LAYERS:
        units[layer + ".self_us_per_event"] = "us/event"
        units[layer + ".calls_per_event"] = "calls/event"
    units.update(COUNT_UNITS)
    units["trace.overhead_x"] = "x"
    return units


def _fresh_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name in FRESH or name.startswith("repro.")}


def time_import() -> float:
    """Host seconds of one fresh import of the simulator and the workloads.

    The fresh modules are dropped afterwards and the ones in use put
    back, so the run keeps one consistent set of classes.
    """
    in_use = _fresh_modules()
    for name in in_use:
        del sys.modules[name]
    start = perf_counter()
    try:
        importlib.import_module("suite")
        return perf_counter() - start
    finally:
        for name in _fresh_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def show(name: str, value, unit: str) -> None:
    print("%-34s %16.6g %s" % (name, value, unit))


def timed_trial(workload, seed: int, ledger=None):
    """Set up and run one simulation; returns ``(setup_s, host_s, result)``.

    The collector runs between trials, never inside a timed phase.
    """
    gc.collect()
    start = perf_counter()
    trial = workload.setup(seed)
    ready = perf_counter()
    if ledger is None:
        trial.run()
    else:
        with ledger:
            trial.run()
    done = perf_counter()
    return ready - start, done - ready, trial.finish()


def time_setup(workload, seed: int):
    """One set-up sample: a fresh import and a build, whose System is
    dropped; returns ``(import_s, build_s, their sum in calibration
    calls)``, read against the fastest of ``SETUP_CALLS`` calibration
    calls made just before."""
    call_s = min(time_calibration() for _ in range(SETUP_CALLS))
    import_s = time_import()
    gc.collect()
    start = perf_counter()
    workload.setup(seed)
    build_s = perf_counter() - start
    return import_s, build_s, (import_s + build_s) / call_s


def sliced_trial(workload, seed: int, bounds):
    """Set up and run one simulation in slices that end at each of
    ``bounds`` and then at quiescence, with one calibration call before
    each slice; returns ``(slice seconds, calibration seconds, result)``."""
    gc.collect()
    trial = workload.setup(seed)
    slices, calls = [], []
    for until in list(bounds) + [None]:
        calls.append(time_calibration())
        start = perf_counter()
        trial.run(until)
        slices.append(perf_counter() - start)
    return slices, calls, trial.finish()


def time_calibration() -> float:
    """Host seconds of one call of the calibration loop."""
    start = perf_counter()
    calibrate.calibrate()
    return perf_counter() - start


def fastest(reps) -> float:
    """Sum over slices of the fastest time any repetition took for it."""
    return sum(min(column) for column in zip(*reps))


def report_result(result) -> None:
    for name, value in result.metrics.items():
        show(name, value, SIM_UNITS.get(name, END_TO_END.get(name, "")))
    for kind, count in result.failures.items():
        show("fail." + kind, count, "count")
    show("ops_attempted", result.attempted, "count")
    show("ops_failed", result.failed, "count")
    show("ops_failed_frac", result.failed / result.attempted, "fraction")
    print("state_digest %s" % result.digest)


def measure(workload, seed: int, seconds: float):
    """``--trace 0``: repeat until ``seconds`` are spent.

    An untimed warm-up runs straight to quiescence; its makespan fixes
    the slice bounds.  Returns ``(metrics, attempted, failed)``; every
    sliced repetition must reproduce the warm-up's state digest.
    """
    start = perf_counter()
    _, _, first = timed_trial(workload, seed)
    width = -(-int(first.metrics["sim_cycles"]) // NSLICES)
    bounds = [width * k for k in range(1, NSLICES)]
    samples, reps, cals, results = [], [], [], [first]
    while True:
        samples.extend(time_setup(workload, seed) for _ in range(SETUP_SAMPLES))
        slices, calls, result = sliced_trial(workload, seed, bounds)
        reps.append(slices)
        cals.append(calls)
        results.append(result)
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(results) > seconds:
            break
    report_result(first)
    digests = {r.digest for r in results}
    print("repetitions %d + warm-up, distinct state digests %d"
          % (len(reps), len(digests)))
    hosts = [sum(slices) for slices in reps]
    print("host_s per repetition %s" % " ".join("%.4f" % h for h in hosts))
    raw_host_s = fastest(reps)
    # host seconds at the reference speed per host second at the speed
    # of the run's quietest moments
    scale = calibrate.NOMINAL_S * (len(bounds) + 1) / fastest(cals)
    imports, builds, setups = zip(*samples)
    show("import_s_raw", min(imports), "s")
    show("build_s_raw", min(builds), "s")
    show("host_s_fastest_rep_raw", min(hosts), "s")
    show("host_s_median_rep_raw", statistics.median(hosts), "s")
    show("host_s_raw", raw_host_s, "s")
    show("speed_scale", scale, "x")
    host_s = raw_host_s * scale
    metrics = {
        "host_s": host_s,
        "sim_cycles_per_host_sec": first.metrics["sim_cycles"] / host_s,
        "setup_s": statistics.median(setups) * calibrate.NOMINAL_S,
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles": first.metrics["sim_cycles"],
    }
    failed = sum(r.failed for r in results) + len(digests) - 1
    return metrics, sum(r.attempted for r in results), failed


def trace(workload, seed: int):
    """``--trace 1``: one untraced and one traced run; per-layer ledger.

    Returns ``(metrics, attempted, failed)``; the traced run must
    reproduce the untraced run's state digest (no probe effect).
    """
    _, host_s, plain = timed_trial(workload, seed)
    ledger = Ledger()
    _, traced_s, traced = timed_trial(workload, seed, ledger)
    report_result(plain)
    print("state_digest traced %s" % traced.digest)
    events = plain.counts["engine.events"]
    metrics = {}
    for layer in ALL_LAYERS:
        metrics[layer + ".self_us_per_event"] = ledger.self_ns[layer] / 1e3 / events
        metrics[layer + ".calls_per_event"] = ledger.calls[layer] / events
    metrics.update(plain.counts)
    metrics["trace.overhead_x"] = traced_s / host_s
    total = ledger.total_ns
    print("traced host_s %.6f, ledger total %.6f s, outside repro %.2f%%"
          % (traced_s, total / 1e9, 100.0 * ledger.self_ns[OUTSIDE] / total))
    for layer in sorted(ALL_LAYERS, key=lambda name: -ledger.self_ns[name]):
        print("  %-18s %6.2f%% self  %12d calls"
              % (layer, 100.0 * ledger.self_ns[layer] / total, ledger.calls[layer]))
    failed = plain.failed + traced.failed + int(plain.digest != traced.digest)
    return metrics, plain.attempted + traced.attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import suite
    except ImportError as err:
        print("perfbench: cannot import the simulator from %s: %s" % (SRC, err),
              file=sys.stderr)
        return 2

    if args.workload not in suite.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(suite.WORKLOADS)))
    workload = suite.WORKLOADS[args.workload]()

    # Collector pauses would land at random inside timed phases;
    # timed_trial collects between trials instead.
    gc.disable()
    if args.trace:
        metrics, attempted, failed = trace(workload, args.seed)
        units = per_layer_units()
    else:
        metrics, attempted, failed = measure(workload, args.seed, args.seconds)
        units = END_TO_END
    for name, value in metrics.items():
        show(name, value, units[name])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
