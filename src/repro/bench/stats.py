"""Seed sweeps: every experiment under N perturbation seeds, one table.

Every number an experiment reports is in simulated cycles on a
deterministic machine, so seed ``s`` of an experiment prints the same
numbers on every host.  ``python -m repro.bench --seeds N`` runs each
chosen experiment under seeds ``0..N-1`` (sharded across ``--jobs``
host processes with ``multiprocessing``), requires every claim to hold
under every seed, and writes ``eNN.seeds.txt`` beside ``eNN.txt``: one
line per (row, metric) with the mean, min and max over the seeds, then
each seed's value exactly as the row holds it.  Any change to any
seed's value changes the file, so the committed tables are the gate:
CI reruns the sweep and diffs ``benchmarks/results``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import write_result


def summarize(values: Sequence[float]) -> dict:
    """Count, mean, min and max of one metric's per-seed values."""
    values = list(values)
    n = len(values)
    return {
        "n": n,
        "mean": sum(values) / n if n else 0.0,
        "min": min(values) if values else 0.0,
        "max": max(values) if values else 0.0,
        "values": values,
    }


# ----------------------------------------------------------------------
# running one experiment under one seed


def run_experiment(eid: str, seed: Optional[int] = None, **kwargs):
    """Run experiment ``eid`` once under perturbation seed ``seed``.

    Every experiment threads ``seed`` into its ``System(perturb_seed=...)``
    builds, so distinct seeds explore distinct legal schedules; ``None``
    is each one's default schedule.  Experiments whose numbers no legal
    schedule moves print the same value under every seed.
    """
    from repro.bench.experiments import ALL_EXPERIMENTS

    return ALL_EXPERIMENTS[eid.upper()](seed=seed, **kwargs)


def extract_metrics(result) -> Dict[str, Dict[str, float]]:
    """Flatten an ExperimentResult's rows into ``{row_key: {metric: v}}``.

    The first column names the row (``scheduler``, ``vm_index``,
    ``mechanism`` ...).  A name that several rows share gets the row's
    index appended (E1's ``fork#0`` ... ``thread#11``), so every row
    keeps its own key.  Every other numeric column is a metric, kept as
    the row holds it (a bool counts as 0 or 1).
    """
    key = result.columns[0]
    names = [str(row.get(key)) for row in result.rows]
    out: Dict[str, Dict[str, float]] = {}
    for index, row in enumerate(result.rows):
        name = names[index]
        if names.count(name) > 1:
            name = "%s#%d" % (name, index)
        metrics = {}
        for column in result.columns[1:]:
            value = row.get(column)
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                metrics[column] = value
        out[name] = metrics
    return out


def _sweep_worker(job):
    """Top-level worker (multiprocessing needs it importable)."""
    eid, seed, kwargs = job
    result = run_experiment(eid, seed=seed, **kwargs)
    return {
        "seed": seed,
        "title": result.title,
        "metrics": extract_metrics(result),
        "claims": [(claim.description, claim.holds) for claim in result.claims],
    }


# ----------------------------------------------------------------------
# the sweep


class SweepResult:
    """Per-seed metric samples and claim outcomes of one experiment."""

    def __init__(self, eid: str, seeds: List[int], scale: Optional[str] = None):
        self.eid = eid
        self.seeds = seeds
        self.scale = scale
        self.runs: List[dict] = []  #: one _sweep_worker payload per seed

    # ------------------------------------------------------------------

    def claims(self) -> Dict[str, List[int]]:
        """``{claim description: [seeds it fails under]}``, in claim order."""
        out: Dict[str, List[int]] = {}
        for run in self.runs:
            for description, holds in run["claims"]:
                failing = out.setdefault(description, [])
                if not holds:
                    failing.append(run["seed"])
        return out

    @property
    def failed_claims(self) -> List[str]:
        return [
            "seed %d: %s" % (seed, description)
            for description, seeds in self.claims().items()
            for seed in seeds
        ]

    def samples(self) -> Dict[str, Dict[str, List[float]]]:
        """``{row: {metric: [per-seed values]}}`` in seed order."""
        out: Dict[str, Dict[str, List[float]]] = {}
        for run in self.runs:
            for row, metrics in run["metrics"].items():
                slot = out.setdefault(row, {})
                for metric, value in metrics.items():
                    slot.setdefault(metric, []).append(value)
        return out

    def render(self) -> str:
        """The seed table: one line per (row, metric), then the claims."""
        lines = [
            "%s — %s" % (self.eid, self.runs[0]["title"]),
            "seeds %d..%d%s: mean, min and max over the seeds, then each "
            "seed's value in seed order"
            % (self.seeds[0], self.seeds[-1],
               ", %s scale" % self.scale if self.scale else ""),
            "",
        ]
        header = ("row", "metric", "mean", "min", "max", "values")
        table = []
        for row, metrics in self.samples().items():
            for metric, values in metrics.items():
                stat = summarize(values)
                table.append((
                    row, metric, "%.3f" % stat["mean"], repr(stat["min"]),
                    repr(stat["max"]), " ".join(repr(v) for v in values),
                ))
        widths = [max(len(cells[i]) for cells in [header] + table)
                  for i in range(5)]

        def line(cells):
            padded = [cell.ljust(width) for cell, width in zip(cells, widths)]
            return "  ".join(padded + [cells[5]])

        lines.append(line(header))
        lines.append("-" * len(lines[-1]))
        lines.extend(line(cells) for cells in table)
        lines.append("")
        for description, failing in self.claims().items():
            if failing:
                lines.append("[FAIL] %s — fails under seed(s) %s" % (
                    description, ", ".join(str(seed) for seed in failing)))
            else:
                lines.append("[ok  ] %s" % description)
        return "\n".join(lines) + "\n"

    def save(self, directory: Optional[str] = None) -> str:
        """Print the seed table and write it as ``eNN.seeds.txt``."""
        text = self.render()
        print(text)
        return write_result("%s.seeds.txt" % self.eid.lower(), text, directory)


def run_sweep(
    eid: str,
    nseeds: int = 10,
    jobs: Optional[int] = None,
    **kwargs,
) -> SweepResult:
    """Run ``eid`` under seeds ``0..nseeds-1`` sharded across ``jobs``.

    ``jobs=1`` (or a single seed) runs in-process — no fork, no pickle —
    which is what the tests use; anything larger spins a Pool.  Worker
    payloads are plain dicts, collected in seed order either way.
    """
    eid = eid.upper()
    seeds = list(range(nseeds))
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(seeds) or 1))
    sweep = SweepResult(eid, seeds, kwargs.get("scale"))
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
