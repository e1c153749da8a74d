"""Every experiment must thread the sweep's seed into its System builds.

``python -m repro.bench --seeds N`` runs each experiment under N
perturbation seeds and commits every seed's values in ``eNN.seeds.txt``.
That is only meaningful if the seed actually reaches
``System(perturb_seed=...)`` — an experiment that drops it runs N
identical replicas, and its table checks the claims under one schedule
only.  Historically only E15/E16 accepted a seed; now the whole table
must.
"""

import inspect

import pytest

import repro.bench.experiments as experiments
import repro.workloads.models as models
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.stats import run_experiment


class _Probe(Exception):
    """Raised by the stub System so the experiment stops immediately."""


def _probe_system(record):
    def fake_system(*args, **kwargs):
        record.append(kwargs.get("perturb_seed"))
        raise _Probe()

    return fake_system


@pytest.mark.parametrize("eid", list(ALL_EXPERIMENTS))
def test_experiment_accepts_and_forwards_seed(eid, monkeypatch):
    func = ALL_EXPERIMENTS[eid]
    assert "seed" in inspect.signature(func).parameters, (
        "%s does not accept a perturbation seed; the sweep would run "
        "identical replicas" % eid
    )

    record = []
    fake = _probe_system(record)
    # experiments build Systems directly or via the workload models
    monkeypatch.setattr(experiments, "System", fake)
    monkeypatch.setattr(models, "System", fake)
    with pytest.raises(_Probe):
        func(seed=1234)
    assert record, "%s never built a System" % eid
    assert record[0] == 1234, (
        "%s dropped the seed on its first System build" % eid
    )


def test_run_experiment_passes_seed_through(monkeypatch):
    """The sweep entry point forwards seeds for every experiment."""
    record = []
    fake = _probe_system(record)
    monkeypatch.setattr(experiments, "System", fake)
    monkeypatch.setattr(models, "System", fake)
    for eid in ALL_EXPERIMENTS:
        record.clear()
        with pytest.raises(_Probe):
            run_experiment(eid, seed=77)
        assert record and record[0] == 77, eid
