"""Statistical claims harness: N-seed sweeps and bootstrap CIs.

A single seeded run is a point estimate; the paper-reproduction claims
deserve error bars.  This module runs any E-benchmark over ``N``
perturbation seeds (sharded across host cores with ``multiprocessing``),
collects every numeric metric each run reports, and attaches a
*nonparametric bootstrap confidence interval* (percentile method, seeded
resampler — no distributional assumptions) to each one.  ``python -m
repro.bench EID --seeds N`` stores them under ``"stats"`` in
``BENCH_<eid>.json``, and ``benchmarks/compare_bench.py`` gates
regressions on **CI overlap** instead of a raw percentage threshold.

Determinism: seed ``s`` always produces the same run (the engine's
perturbation RNG is seeded), and the bootstrap resampler is its own
``random.Random(seed)`` — the whole pipeline is reproducible from the
command line that ran it.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
from typing import Dict, List, Optional, Sequence

#: resamples for the percentile bootstrap (enough for stable 95% bounds)
DEFAULT_RESAMPLES = 2000

#: the default confidence level reported everywhere
DEFAULT_ALPHA = 0.05


# ----------------------------------------------------------------------
# the bootstrap itself


def bootstrap_ci(
    values: Sequence[float],
    n_resamples: int = DEFAULT_RESAMPLES,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
):
    """Percentile-method bootstrap CI for the mean of ``values``.

    Resample with replacement ``n_resamples`` times, take each
    resample's mean, and report the ``alpha/2`` and ``1 - alpha/2``
    empirical quantiles.  A private ``random.Random(seed)`` makes the
    interval a pure function of ``(values, n_resamples, alpha, seed)``.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return (0.0, 0.0)
    if n == 1:
        return (float(values[0]), float(values[0]))
    rng = random.Random(seed)
    means = []
    for _ in range(n_resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    means.sort()
    lo_rank = int(alpha / 2.0 * n_resamples)
    hi_rank = min(n_resamples - 1, int((1.0 - alpha / 2.0) * n_resamples))
    return (means[lo_rank], means[hi_rank])


def summarize(
    values: Sequence[float],
    n_resamples: int = DEFAULT_RESAMPLES,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> dict:
    """Mean, spread and bootstrap CI of one metric's per-seed values."""
    values = [float(v) for v in values]
    lo, hi = bootstrap_ci(values, n_resamples=n_resamples, alpha=alpha,
                          seed=seed)
    n = len(values)
    return {
        "n": n,
        "mean": sum(values) / n if n else 0.0,
        "min": min(values) if values else 0.0,
        "max": max(values) if values else 0.0,
        "ci_lo": lo,
        "ci_hi": hi,
        "alpha": alpha,
        "values": values,
    }


# ----------------------------------------------------------------------
# running one experiment under one seed


def run_experiment(eid: str, seed: Optional[int] = None, **kwargs):
    """Run experiment ``eid`` once under perturbation seed ``seed``.

    Every experiment threads ``seed`` into its ``System(perturb_seed=...)``
    builds, so distinct seeds explore distinct legal schedules; ``None``
    is each one's default schedule.  Experiments whose numbers no legal
    schedule moves reproduce them under every seed (their CIs collapse
    to a point, which the overlap gate handles fine).
    """
    from repro.bench.experiments import ALL_EXPERIMENTS

    return ALL_EXPERIMENTS[eid.upper()](seed=seed, **kwargs)


def extract_metrics(result) -> Dict[str, Dict[str, float]]:
    """Flatten an ExperimentResult's rows into ``{row_key: {metric: v}}``.

    The first column identifies the row (``scheduler``, ``vm_index``,
    ``mechanism`` ...); every other numeric column is a metric.
    """
    key = result.columns[0]
    out: Dict[str, Dict[str, float]] = {}
    for row in result.rows:
        name = str(row.get(key))
        metrics = {}
        for column in result.columns[1:]:
            value = row.get(column)
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                metrics[column] = float(value)
        out[name] = metrics
    return out


def _sweep_worker(job):
    """Top-level worker (multiprocessing needs it importable)."""
    eid, seed, kwargs = job
    result = run_experiment(eid, seed=seed, **kwargs)
    failed = [c.description for c in result.claims if not c.holds]
    return {
        "seed": seed,
        "metrics": extract_metrics(result),
        "failed_claims": failed,
    }


# ----------------------------------------------------------------------
# the sweep


class SweepResult:
    """Per-seed metric samples plus their bootstrap summaries."""

    def __init__(self, eid: str, seeds: List[int], jobs: int):
        self.eid = eid
        self.seeds = seeds
        self.jobs = jobs
        self.runs: List[dict] = []  #: one _sweep_worker payload per seed

    # ------------------------------------------------------------------

    @property
    def failed_claims(self) -> List[str]:
        out = []
        for run in self.runs:
            for description in run["failed_claims"]:
                out.append("seed %s: %s" % (run["seed"], description))
        return out

    def samples(self) -> Dict[str, Dict[str, List[float]]]:
        """``{row: {metric: [per-seed values]}}`` in seed order."""
        out: Dict[str, Dict[str, List[float]]] = {}
        for run in sorted(self.runs, key=lambda r: r["seed"]):
            for row, metrics in run["metrics"].items():
                slot = out.setdefault(row, {})
                for metric, value in metrics.items():
                    slot.setdefault(metric, []).append(value)
        return out

    def stats(self, n_resamples: int = DEFAULT_RESAMPLES,
              alpha: float = DEFAULT_ALPHA) -> Dict[str, Dict[str, dict]]:
        """``{row: {metric: summarize(...)}}`` over the whole sweep."""
        return {
            row: {
                metric: summarize(values, n_resamples=n_resamples,
                                  alpha=alpha)
                for metric, values in metrics.items()
            }
            for row, metrics in self.samples().items()
        }

    def render(self, alpha: float = DEFAULT_ALPHA) -> str:
        """The CI table: one line per (row, metric)."""
        pct = int(round((1.0 - alpha) * 100))
        lines = [
            "%s over %d seed(s), %d job(s) — mean [%d%% bootstrap CI]"
            % (self.eid, len(self.seeds), self.jobs, pct),
        ]
        header = "%-12s %-20s %12s %26s" % ("row", "metric", "mean",
                                            "ci (lo, hi)")
        lines.append(header)
        lines.append("-" * len(header))
        for row, metrics in sorted(self.stats(alpha=alpha).items()):
            for metric, stat in sorted(metrics.items()):
                lines.append(
                    "%-12s %-20s %12.3f %26s"
                    % (row, metric, stat["mean"],
                       "[%.3f, %.3f]" % (stat["ci_lo"], stat["ci_hi"]))
                )
        if self.failed_claims:
            lines.append("")
            for failure in self.failed_claims:
                lines.append("CLAIM FAILED %s" % failure)
        return "\n".join(lines)


def run_sweep(
    eid: str,
    nseeds: int = 10,
    jobs: Optional[int] = None,
    **kwargs,
) -> SweepResult:
    """Run ``eid`` under seeds ``0..nseeds-1`` sharded across ``jobs``.

    ``jobs=1`` (or a single seed) runs in-process — no fork, no pickle —
    which is what the tests use; anything larger spins a Pool.  Worker
    payloads are plain dicts of metrics and failed claims.
    """
    eid = eid.upper()
    seeds = list(range(nseeds))
    if jobs is None:
        jobs = min(len(seeds), os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(seeds) or 1))
    sweep = SweepResult(eid, seeds, jobs)
    payload = [(eid, seed, kwargs) for seed in seeds]
    if jobs == 1:
        sweep.runs = [_sweep_worker(job) for job in payload]
    else:
        # Same host-side tuning as the CLI entry point, in processes the
        # sweep owns: shards are short-lived, so their cyclic garbage dies
        # with them and collector pauses would only slow them down.
        with multiprocessing.Pool(jobs, initializer=gc.disable) as pool:
            sweep.runs = pool.map(_sweep_worker, payload)
    return sweep
