#!/usr/bin/env python
"""Render BENCH_TREND.json into SVG charts plus a markdown digest.

The trend file (written by ``python -m repro.bench --trend PATH``, one
entry per experiment per run) accumulates across PRs; this script turns
it into reviewable artifacts:

* ``trend_<EID>.svg`` — the experiment's headline metric over time, one
  polyline per table row, with the bootstrap CI as a shaded band;
* ``TREND.md`` — the latest run's metric table per experiment with
  deltas against the previous entry.

Host speed is not tracked here: ``perfbench/run.py`` measures it, and
the ``host`` blocks that older trend entries carry are ignored.

Stdlib only — no matplotlib in CI.

Usage:  python benchmarks/plot_trend.py BENCH_TREND.json --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: first metric from this list present in an entry becomes the chart
HEADLINE = (
    "throughput_per_kcycle", "speedup", "ratio", "p99_cycles", "mean_cycles",
)

WIDTH, HEIGHT, PAD = 640, 360, 48
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def load_entries(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle).get("entries", [])


def by_experiment(entries: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for entry in entries:
        grouped.setdefault(entry.get("experiment", "?"), []).append(entry)
    return grouped


def headline_metric(runs: List[dict]) -> Optional[str]:
    present = set()
    for run in runs:
        for metrics in run.get("metrics", {}).values():
            present.update(metrics)
    for name in HEADLINE:
        if name in present:
            return name
    return min(present) if present else None


def series_points(runs: List[dict], row: str,
                  metric: str) -> List[Tuple[int, float, float, float]]:
    """(run index, mean, ci_lo, ci_hi) wherever the row reported it."""
    points = []
    for index, run in enumerate(runs):
        stat = run.get("metrics", {}).get(row, {}).get(metric)
        if stat is not None:
            points.append((index, float(stat["mean"]),
                           float(stat["ci_lo"]), float(stat["ci_hi"])))
    return points


def _scale(values: List[float], lo: float, hi: float,
           out_lo: float, out_hi: float) -> List[float]:
    span = (hi - lo) or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_chart(title: str, ylabel: str,
                 series: Dict[str, List[Tuple[int, float, float, float]]]) -> str:
    """A minimal line chart: one polyline + CI band per named series."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [v for pts in series.values() for p in pts for v in p[1:]]
    if not xs:
        xs, ys = [0], [0.0]
    x_lo, x_hi = min(xs), max(xs) or 1
    y_lo, y_hi = min(ys + [0.0]), max(ys) or 1.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'font-family="monospace" font-size="12">' % (WIDTH, HEIGHT),
        '<rect width="100%" height="100%" fill="white"/>',
        '<text x="%d" y="20" font-size="14">%s</text>' % (PAD, title),
        '<text x="8" y="%d" transform="rotate(-90 8 %d)">%s</text>'
        % (HEIGHT // 2, HEIGHT // 2, ylabel),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (PAD, HEIGHT - PAD, WIDTH - PAD // 2, HEIGHT - PAD),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (PAD, PAD // 2, PAD, HEIGHT - PAD),
        '<text x="%d" y="%d">run index</text>'
        % (WIDTH // 2 - 30, HEIGHT - PAD // 4),
        '<text x="%d" y="%d" text-anchor="end">%.3g</text>'
        % (PAD - 4, PAD // 2 + 4, y_hi),
        '<text x="%d" y="%d" text-anchor="end">%.3g</text>'
        % (PAD - 4, HEIGHT - PAD, y_lo),
    ]
    for slot, (name, points) in enumerate(sorted(series.items())):
        if not points:
            continue
        color = PALETTE[slot % len(PALETTE)]
        px = _scale([p[0] for p in points], x_lo, x_hi, PAD, WIDTH - PAD // 2)
        mean = _scale([p[1] for p in points], y_lo, y_hi, HEIGHT - PAD, PAD // 2)
        lo = _scale([p[2] for p in points], y_lo, y_hi, HEIGHT - PAD, PAD // 2)
        hi = _scale([p[3] for p in points], y_lo, y_hi, HEIGHT - PAD, PAD // 2)
        band = (["%0.1f,%0.1f" % pair for pair in zip(px, hi)]
                + ["%0.1f,%0.1f" % pair for pair in zip(px[::-1], lo[::-1])])
        parts.append('<polygon points="%s" fill="%s" opacity="0.15"/>'
                     % (" ".join(band), color))
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>'
            % (" ".join("%0.1f,%0.1f" % pair for pair in zip(px, mean)),
               color))
        for x, y in zip(px, mean):
            parts.append('<circle cx="%0.1f" cy="%0.1f" r="3" fill="%s"/>'
                         % (x, y, color))
        parts.append('<text x="%d" y="%d" fill="%s">%s</text>'
                     % (WIDTH - PAD // 2 + 4, int(mean[-1]) + 4, color, name))
    parts.append("</svg>")
    return "\n".join(parts)


def render_markdown(grouped: Dict[str, List[dict]]) -> str:
    lines = ["# Benchmark trend", ""]
    for eid in sorted(grouped):
        runs = [r for r in grouped[eid] if r.get("metrics")]
        if not runs:
            continue
        latest, previous = runs[-1], (runs[-2] if len(runs) > 1 else None)
        lines.append("## %s (%d tracked runs, latest sha `%s`)"
                     % (eid, len(runs), (latest.get("sha") or "?")[:12]))
        lines.append("")
        lines.append("| row | metric | mean | 95% CI | vs previous |")
        lines.append("|---|---|---:|---|---:|")
        for row in latest["metrics"]:
            for metric, stat in sorted(latest["metrics"][row].items()):
                delta = ""
                if previous is not None:
                    old = previous.get("metrics", {}).get(row, {}).get(metric)
                    if old and old["mean"]:
                        delta = "%+.1f%%" % (
                            (stat["mean"] - old["mean"]) / old["mean"] * 100.0)
                lines.append("| %s | %s | %.4g | [%.4g, %.4g] | %s |" % (
                    row, metric, stat["mean"], stat["ci_lo"], stat["ci_hi"],
                    delta))
        lines.append("")
    return "\n".join(lines)


def render_all(trend_path: str, out_dir: str) -> List[str]:
    entries = load_entries(trend_path)
    grouped = by_experiment(entries)
    os.makedirs(out_dir, exist_ok=True)
    written = []

    for eid, runs in sorted(grouped.items()):
        metric = headline_metric(runs)
        if metric is None:
            continue
        rows = sorted({row for run in runs for row in run.get("metrics", {})})
        series = {row: series_points(runs, row, metric) for row in rows}
        path = os.path.join(out_dir, "trend_%s.svg" % eid)
        with open(path, "w") as handle:
            handle.write(render_chart("%s: %s" % (eid, metric), metric, series))
        written.append(path)

    path = os.path.join(out_dir, "TREND.md")
    with open(path, "w") as handle:
        handle.write(render_markdown(grouped))
        handle.write("\n")
    written.append(path)
    return written


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trend", help="path to BENCH_TREND.json")
    parser.add_argument("--out-dir", default="benchmarks/results/trend",
                        help="directory for the SVG/markdown artifacts")
    args = parser.parse_args(argv[1:])
    if not os.path.exists(args.trend):
        print("no trend file at %s; nothing to plot" % args.trend)
        return 0
    for path in render_all(args.trend, args.out_dir):
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
