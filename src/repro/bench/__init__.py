"""Benchmark harness and the seventeen paper-reproduction experiments."""

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import Claim, ExperimentResult, mean, ratio

__all__ = ["ALL_EXPERIMENTS", "Claim", "ExperimentResult", "mean", "ratio"]
