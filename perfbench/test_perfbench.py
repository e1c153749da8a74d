"""Self-test of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import ledger
import run

sys.path.insert(0, run.SRC)

import suite  # noqa: E402

ROOT = os.path.dirname(run.HERE)

#: sizes small enough for a unit test, large enough to exercise every
#: mechanism (evictions and AIO on server, updates and helpers on
#: share-sync)
TINY = {
    "server": suite.Server(1_280),
    "sched-churn": suite.SchedChurn(20),
    "share-sync": suite.ShareSync(128),
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_json()[section]}


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    assert names == list(suite.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_emits_every_metric(name, capsys):
    metrics, attempted, failed = run.measure(TINY[name], 1, 0.0)
    assert failed == 0 and attempted > 0
    assert {k: run.END_TO_END[k] for k in metrics} == _units("end_to_end")
    assert all(value > 0 for value in metrics.values())

    metrics, attempted, failed = run.trace(TINY[name], 1)
    assert failed == 0  # includes: traced digest == untraced digest
    units = run.per_layer_units()
    assert {k: units[k] for k in metrics} == _units("per_layer")

    out = capsys.readouterr().out
    for metric in ("sim_cycles", "ops_failed_frac", "state_digest"):
        assert metric in out
    if name == "server":
        for metric in ("sim_req_p50_cycles", "sim_req_p99_cycles",
                       "sim_throughput_per_kcycle"):
            assert metric in out
    if name != "sched-churn":
        for metric in ("sim_syscall_p50_cycles", "sim_syscall_p99_cycles"):
            assert metric in out


def _finished(name: str, seed: int = 1, tamper=None) -> suite.Result:
    trial = TINY[name].setup(seed)
    trial.run()
    if tamper is not None:
        tamper(trial.outputs)
    return trial.finish()


@pytest.mark.parametrize("name", list(TINY))
def test_digest_repeats_for_a_seed(name):
    first = _finished(name)
    assert first.failed == 0
    assert _finished(name).digest == first.digest
    assert _finished(name, seed=2).digest != first.digest


def _drop_requests(stats):
    stats.done_reqs -= 64


def _drop_member(ctx):
    ctx["members"].pop()


def _truncate_log(ctx):
    ctx["log"] = ctx["log"][:-4]


@pytest.mark.parametrize("name, tamper, kind", [
    ("server", _drop_requests, "requests_not_completed"),
    ("sched-churn", _drop_member, "members_failed"),
    ("share-sync", _truncate_log, "log_mismatch"),
])
def test_correctness_check_rejects_a_tampered_result(name, tamper, kind):
    result = _finished(name, tamper=tamper)
    assert result.failures[kind] > 0
    assert result.failed > 0


def test_seed_moves_work_but_not_its_amount():
    churn = suite.SchedChurn(10)
    steps = [sorted(s for group in churn.inputs(seed) for s, _ in group)
             for seed in (1, 2)]
    assert steps[0] == steps[1]
    assert churn.inputs(1) != churn.inputs(2)
    plans = [suite.RingPlan(seed, 256, 6) for seed in (1, 2)]
    assert len(plans[0].updates()) == len(plans[1].updates()) == 64
    assert plans[0].updater != plans[1].updater


def test_calibration_loop_is_unchanged():
    # host times are scaled by this loop's speed: a changed loop would
    # make figures before and after the change incomparable
    assert (calibrate.STEPS, calibrate.NOMINAL_S) == (1500, 0.00125)
    assert calibrate.calibrate() == 63387


def test_layers_follow_the_module_of_the_code():
    src = os.path.join(run.SRC, "repro")
    assert ledger.layer_of_file(os.path.join(src, "kernel", "sched.py")) == "kernel.sched"
    assert ledger.layer_of_file(os.path.join(src, "mem", "addrspace.py")) == "kernel.fault"
    assert ledger.layer_of_file(os.path.join(src, "fs", "pipe.py")) == "kernel.filecalls"
    assert ledger.layer_of_file(os.path.join(src, "system.py")) == ledger.OTHER
    assert ledger.layer_of_file(suite.__file__) == "workloads"
    assert ledger.layer_of_file(json.__file__) == ledger.OUTSIDE


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "server",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
