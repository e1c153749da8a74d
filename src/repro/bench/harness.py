"""Benchmark harness: experiment results, tables, and shape checks.

Every experiment produces an :class:`ExperimentResult` — rows of
simulated-cycle measurements plus *claims*: the qualitative shapes the
paper states (who wins, by roughly what factor, where crossovers fall).
``python -m repro.bench`` exits non-zero when a claim fails, and
``check()`` turns the claims into assertions for library callers, so a
regression in the kernel that flips a result fails loudly instead of
just changing a number nobody reads.

Rendered tables are printed and also written under
``benchmarks/results/`` so EXPERIMENTS.md can reference the exact output.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence


class Claim:
    """One qualitative assertion about an experiment's outcome."""

    def __init__(self, description: str, holds: bool, detail: str = ""):
        self.description = description
        self.holds = holds
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover
        return "<Claim %s: %s>" % ("OK" if self.holds else "FAIL", self.description)


class ExperimentResult:
    """Rows + claims for one experiment (one paper table/figure)."""

    def __init__(self, eid: str, title: str, columns: Sequence[str]):
        self.eid = eid
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict] = []
        self.claims: List[Claim] = []
        self.notes: List[str] = []

    # ------------------------------------------------------------------

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def claim(self, description: str, holds: bool, detail: str = "") -> None:
        self.claims.append(Claim(description, bool(holds), detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    # ------------------------------------------------------------------

    def check(self) -> "ExperimentResult":
        """Assert every claim; raise with the failing ones listed."""
        failing = [claim for claim in self.claims if not claim.holds]
        if failing:
            lines = [
                "  FAILED: %s %s" % (claim.description, claim.detail)
                for claim in failing
            ]
            raise AssertionError(
                "%s: %d claim(s) failed:\n%s\n%s"
                % (self.eid, len(failing), "\n".join(lines), self.render())
            )
        return self

    # ------------------------------------------------------------------

    def render(self) -> str:
        """The experiment as an aligned text table with claim summary."""
        lines = ["", "=" * 72, "%s — %s" % (self.eid, self.title), "=" * 72]
        widths = {
            column: max(
                len(column),
                max((len(_fmt(row.get(column))) for row in self.rows), default=0),
            )
            for column in self.columns
        }
        header = "  ".join(column.ljust(widths[column]) for column in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    _fmt(row.get(column)).ljust(widths[column])
                    for column in self.columns
                )
            )
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append("note: %s" % note)
        lines.append("")
        for claim in self.claims:
            status = "ok  " if claim.holds else "FAIL"
            detail = (" — " + claim.detail) if claim.detail else ""
            lines.append("[%s] %s%s" % (status, claim.description, detail))
        lines.append("")
        return "\n".join(lines)

    def save(self, directory: Optional[str] = None) -> str:
        """Print the table and persist it under benchmarks/results/."""
        text = self.render()
        print(text)
        return write_result("%s.txt" % self.eid.lower(), text, directory)


def write_result(name: str, text: str, directory: Optional[str] = None) -> str:
    """Write ``text`` as ``name`` under ``directory``, else under
    ``$REPRO_RESULTS_DIR``, else under benchmarks/results/."""
    directory = directory or os.environ.get(
        "REPRO_RESULTS_DIR", _default_results_dir()
    )
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _default_results_dir() -> str:
    """benchmarks/results next to the repository's benchmarks package."""
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro/bench -> repo root is three levels up
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(root, "benchmarks")
    if os.path.isdir(candidate):
        return os.path.join(candidate, "results")
    return os.path.join(os.getcwd(), "bench-results")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.2f" % value
    if isinstance(value, int):
        return "{:,}".format(value)
    return str(value)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")
