"""The failpoint registry, the sweep driver, and injected error paths."""

import json

import pytest

from repro import PR_SALL
from repro.check.explore import run_once, sweep
from repro.check.invariants import audit_leaks
from repro.check.scenarios import SCENARIOS, Scenario
from repro.errors import EAGAIN, EMFILE, ENOMEM
from repro.fs.file import O_CREAT, O_RDWR
from repro.inject import SITES, FailPlan, FailPointRegistry
from tests.conftest import run_program


# ----------------------------------------------------------------------
# policy parsing and registry mechanics

def test_policy_nth_fires_exactly_once():
    plan = FailPlan("fd.alloc", "nth:3")
    assert [plan.decide(n) for n in range(1, 6)] == [
        False, False, True, False, False
    ]
    assert not plan.decide(3)  # spent: never again


def test_bad_site_and_bad_policy_rejected():
    with pytest.raises(ValueError):
        FailPlan("no.such.site", "nth:1")
    for bad in (
        "nth", "nth:0", "nth:x", "always", "prob:1.5", "every:-1",
        "every:2", "prob:0.5",
    ):
        with pytest.raises(ValueError):
            FailPlan("fd.alloc", bad)


def test_disarmed_registry_counts_nothing():
    registry = FailPointRegistry()
    assert not registry.fire("fd.alloc")
    assert registry.hits == {} and registry.fired == {}


def test_recording_counts_without_firing():
    registry = FailPointRegistry()
    registry.start_recording()
    for _ in range(4):
        assert not registry.fire("fd.alloc")
    assert registry.hits == {"fd.alloc": 4}
    assert registry.fired == {} and registry.total_fired() == 0


def test_fired_counter_reaches_kstat():
    def main(api, out):
        base = yield from api.mmap(4096)
        if base != -1:
            yield from api.store_word(base, 7)
        return 0

    out, sim = run_program(main, inject={"frames.alloc": "nth:1"})
    # the first frame the workload needs trips the site
    assert sim.machine.inject.total_fired() >= 1
    assert sim.kstat.snapshot()["kernel"][0]["inject_fired"] >= 1
    assert sim.kstat.snapshot()["inject"][0]["frames.alloc"] >= 1


# ----------------------------------------------------------------------
# determinism: a disarmed (or recording, or never-firing) run is
# cycle-identical to one with no injection configured at all

def test_injection_disabled_is_cycle_identical():
    scenario = SCENARIOS["fault-storm"]
    base_out, base_sim = scenario.run()
    armed_out, armed_sim = scenario.run(inject={"frames.alloc": "nth:999999"})
    rec_out, rec_sim = scenario.run(record=True)
    assert base_sim.engine.now == armed_sim.engine.now == rec_sim.engine.now
    assert base_out == armed_out == rec_out
    assert rec_sim.machine.inject.hits  # the recording pass did observe


# ----------------------------------------------------------------------
# injected failures surface as errno and unwind cleanly

def test_fd_alloc_injection_returns_emfile_then_recovers():
    def main(api, out):
        rc = yield from api.open("/f", O_RDWR | O_CREAT)
        out["rc1"], out["err"] = rc, (yield from api.errno())
        rc = yield from api.open("/f", O_RDWR | O_CREAT)
        out["rc2"] = rc
        yield from api.close(rc)
        return 0

    out, sim = run_program(main, inject={"fd.alloc": "nth:1"})
    assert out["rc1"] == -1 and out["err"] == EMFILE
    assert out["rc2"] >= 0
    assert audit_leaks(sim) == []


@pytest.mark.parametrize(
    "site,errno",
    [
        ("sproc.proc", EAGAIN),
        ("sproc.shaddr", EAGAIN),
        ("sproc.stack", ENOMEM),
        ("sproc.uarea", ENOMEM),
        ("sproc.kstack", ENOMEM),
    ],
)
def test_sproc_partial_failure_unwinds(site, errno):
    def member(api, arg):
        yield from api.compute(500)
        return 0

    def main(api, out):
        rc = yield from api.sproc(member, PR_SALL)
        out["rc1"], out["err"] = rc, (yield from api.errno())
        rc = yield from api.sproc(member, PR_SALL)
        out["rc2"] = rc
        if rc != -1:
            yield from api.wait()
        return 0

    out, sim = run_program(main, inject={site: "nth:1"})
    assert out["rc1"] == -1 and out["err"] == errno
    assert out["rc2"] != -1, "sproc must work again after the unwind"
    stats = sim.kernel.stats
    assert stats["groups_created"] == stats["groups_freed"]
    assert audit_leaks(sim) == []


def test_fork_uarea_injection_releases_cow_frames():
    def child(api, arg):
        yield from api.compute(100)
        return 0

    def main(api, out):
        rc = yield from api.fork(child)
        out["rc1"], out["err"] = rc, (yield from api.errno())
        rc = yield from api.fork(child)
        out["rc2"] = rc
        if rc != -1:
            yield from api.wait()
        return 0

    out, sim = run_program(main, inject={"fork.uarea": "nth:1"})
    assert out["rc1"] == -1 and out["err"] == ENOMEM
    assert out["rc2"] != -1
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# the sweep driver

def test_run_injected_classifies_clean_runs():
    result = run_once(SCENARIOS["fault-storm"], site="sproc.proc", policy="nth:1")
    assert result.ok and result.fired == 1


def test_run_injected_tolerates_kill_site_stall():
    # SIGKILL at a syscall boundary may stall the guest protocol; the
    # verdict is ok as long as kernel invariants hold on the stuck state.
    # The third syscall of fd-churn is the parent's second sproc: the
    # kill leaves the reader it already started waiting on the pipe.
    result = run_once(SCENARIOS["fd-churn"], site="syscall.entry", policy="nth:3")
    assert result.ok and result.fired == 1
    assert "stalled after kill" in result.note


def test_sweep_smoke():
    report = sweep(
        ["fault-storm"], site_names=["sproc.proc", "frames.alloc"]
    )
    assert report.ok
    assert set(report.site_coverage) == {"sproc.proc", "frames.alloc"}
    data = report.to_dict()
    assert data["ok"] and data["runs"] > 1
    assert "PASS" in report.render()


def _stall_on_error_main(api, out):
    """Opens four files; when an open after the first fails, it reads a
    pipe nobody writes, so only that error path stalls."""
    for index in range(4):
        fd = yield from api.open("/stall-%d" % index, O_RDWR | O_CREAT)
        if fd == -1 and index > 0:
            rfd, _wfd = yield from api.pipe()
            yield from api.read(rfd, 8)
    return 0


def test_sweep_failure_shrinks_to_a_repro_command(monkeypatch, tmp_path):
    from repro.check.__main__ import main

    monkeypatch.setitem(SCENARIOS, "stall-on-error", Scenario(
        "stall-on-error", _stall_on_error_main, 1,
        "stalls when an open after the first fails",
    ))
    report = sweep(["stall-on-error"], site_names=["fd.alloc"])
    assert report.runs == 3  # the recording pass, then hits 1 and 4
    assert not report.ok and report.site_coverage == {"fd.alloc": ["stall-on-error"]}
    (failure,) = report.failures
    assert failure.result.policy == "nth:4"
    assert failure.kind == "DeadlockError"
    assert failure.minimal.policy == "nth:2"  # hit 1 passes, hit 2 stalls
    command = (
        "python -m repro.check inject --scenario stall-on-error "
        "--site fd.alloc --policy nth:2"
    )
    assert failure.repro_command() == command
    assert "repro: " + command in report.render()
    data = report.to_dict()
    assert data["failures"][0]["repro"] == command
    assert data["failures"][0]["error_kind"] == "DeadlockError"

    path = tmp_path / "run.json"
    assert main(command.split()[3:] + ["--report", str(path)]) == 1
    verdict = json.loads(path.read_text())
    assert verdict["ok"] is False and verdict["error_kind"] == "DeadlockError"
    assert "blocked processes" in verdict["error"]
    assert verdict["policy"] == "nth:2" and verdict["fired"] == 1


def test_cli_inject_single_run():
    from repro.check.__main__ import main

    rc = main([
        "inject", "--scenario", "fd-churn", "--site", "fd.alloc",
        "--policy", "nth:3",
    ])
    assert rc == 0


def test_cli_rejects_unknown_site():
    from repro.check.__main__ import main

    assert main(["inject", "--site", "no.such.site"]) == 2


def test_every_site_is_documented():
    for site, description in SITES.items():
        assert description, site
