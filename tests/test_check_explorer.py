"""The invariant pack and the schedule explorer.

Two burdens of proof: the checkers stay silent on healthy systems (and
speak up the moment state is corrupted), and the explorer both passes
the schedule-independent scenarios and catches the deliberately racy
one — reproducibly, from nothing but the seed its report prints.
"""

import json

import pytest

from repro.check import __main__ as check_cli
from repro.check.explore import explore, run_once
from repro.check.invariants import (
    check_fd_refcounts,
    check_pregion_tlb,
    check_shaddr_refcounts,
    check_vm_index,
    run_invariants,
)
from repro.check.scenarios import DEFAULT_SCENARIOS, SCENARIOS, Scenario
from repro.mem.addrspace import make_region
from repro.mem.frames import Frame
from repro.mem.pregion import PROT_RW, Pregion
from repro.mem.region import RegionType
from repro.system import System


def _partial_fd_churn():
    """fd-churn frozen mid-flight: live members, open files, warm TLBs."""
    scenario = SCENARIOS["fd-churn"]
    out = {}
    sim = System(ncpus=scenario.ncpus, lockdep=True)
    sim.spawn(scenario.main, out, name=scenario.name)
    sim.run(max_events=400, check_deadlock=False)
    assert any(proc.alive() for proc in sim.kernel.proc_table.all_procs())
    return sim


# ----------------------------------------------------------------------
# invariants: silent when healthy, loud when corrupted


def test_invariants_clean_mid_run():
    sim = _partial_fd_churn()
    assert run_invariants(sim) == []


def test_shaddr_refcount_corruption_detected():
    sim = _partial_fd_churn()
    block = next(
        proc.shaddr
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive() and proc.shaddr is not None
    )
    block.s_refcnt += 1
    findings = check_shaddr_refcounts(sim)
    assert findings and "s_refcnt" in findings[0]


def test_stale_tlb_entry_detected():
    sim = _partial_fd_churn()
    asid = next(
        proc.vm.asid
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive()
    )
    # a translation no live address space backs: a missed shootdown
    sim.machine.cpus[0].tlb.insert(asid, 0x7FF99, Frame(4242), writable=False)
    findings = check_pregion_tlb(sim)
    assert findings and "stale entry" in findings[0]


def test_fd_refcount_leak_detected():
    sim = _partial_fd_churn()
    file = next(
        slot
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive()
        for slot in proc.uarea.fdtable.slots
        if slot is not None
    )
    file.hold()  # a reference nothing reachable accounts for
    findings = check_fd_refcounts(sim)
    assert findings and "refcount" in findings[0]
    file.release()
    assert check_fd_refcounts(sim) == []


def _live_shared_list(sim):
    block = next(
        proc.shaddr
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive() and proc.shaddr is not None
    )
    pregions = block.shared_vm.pregions
    pregions.lookup(0)  # make sure the sorted view is built
    assert len(pregions) >= 2
    return pregions


def test_misordered_vm_index_detected():
    sim = _partial_fd_churn()
    pregions = _live_shared_list(sim)
    assert check_vm_index(sim) == []
    order = pregions._order
    order[0], order[1] = order[1], order[0]
    findings = check_vm_index(sim)
    assert findings and "sorted view" in findings[0]


def test_overlapping_pregions_in_one_list_detected():
    sim = _partial_fd_churn()
    pregions = _live_shared_list(sim)
    victim = pregions[0]
    region = make_region(sim.machine.frames, 4096, RegionType.SHM)
    # append skips the attach-time overlap check: a broken fork image
    pregions.append(Pregion(region, victim.vbase, PROT_RW))
    findings = check_vm_index(sim)
    assert findings and "overlaps" in findings[0]


# ----------------------------------------------------------------------
# explorer: pass, fail, reproduce, shrink


def test_default_scenarios_schedule_independent():
    report = explore(DEFAULT_SCENARIOS, nseeds=4)
    assert report.ok, report.render()
    assert report.runs == len(DEFAULT_SCENARIOS) * 5  # baseline + 4 seeds


@pytest.mark.parametrize("seed", [None, 30, 43, 56])
def test_member_fork_children_see_their_parents_data(seed):
    """Fork children of PR_SALL members read the group's word and their
    parent's page, and their COW writes reach neither the parent nor
    the group, unperturbed and under three perturbation seeds."""
    out, sim = SCENARIOS["member-fork"].run(seed=seed)
    for index in range(3):
        assert out["child-group-%d" % index] == 7
        assert out["child-read-%d" % index] == 100 + index
        assert out["child-wrote-%d" % index] == 500 + index
        assert out["member-%d" % index] == 100 + index
    assert out["group"] == 7
    assert out["members"] == 3
    assert run_invariants(sim) == []


def test_explorer_detects_lost_update_race():
    report = explore(["racy-counter"], nseeds=6)
    assert not report.ok
    assert report.failures, "lost updates must surface as divergence"
    assert all(failure.kind == "divergence" for failure in report.failures)
    rendered = report.render()
    assert "FAIL racy-counter" in rendered and "repro:" in rendered


def test_failure_reproduces_from_reported_seed():
    """The seed + shrunken feature set in the report is a real repro:
    running it again diverges from baseline the same way, twice."""
    report = explore(["racy-counter"], nseeds=6)
    failure = report.failures[0]
    minimal = failure.minimal.features
    assert minimal, "shrink kept at least one feature"
    assert minimal <= failure.result.features
    scenario = SCENARIOS["racy-counter"]
    baseline = run_once(scenario, seed=None)
    first = run_once(scenario, seed=failure.result.seed, features=minimal)
    second = run_once(scenario, seed=failure.result.seed, features=minimal)
    assert first.fingerprint == second.fingerprint, "seeded runs are deterministic"
    assert first.fingerprint != baseline.fingerprint, "the divergence is real"
    assert failure.repro_command().startswith("python -m repro.check")


def test_run_once_classifies_lost_wakeup_as_error():
    """A drained engine with blocked processes (the lost-wakeup shape)
    comes back as a classified error, not an unhandled exception."""

    def stuck(api, out):
        rfd, _wfd = yield from api.pipe()
        yield from api.read(rfd, 8)  # nobody will ever write
        return 0

    result = run_once(Scenario("stuck", stuck, 1, "blocks forever"))
    assert not result.ok
    assert result.error_kind == "DeadlockError"
    assert "blocked" in result.error


# ----------------------------------------------------------------------
# the CLI


def test_cli_list_and_smoke(capsys):
    assert check_cli.main(["--list"]) == 0
    listed = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in listed

    assert check_cli.main(["--seeds", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_detects_race_and_writes_report(tmp_path):
    path = tmp_path / "report.json"
    code = check_cli.main(
        ["--scenarios", "racy-counter", "--seeds", "3", "--report", str(path)]
    )
    assert code == 1
    report = json.loads(path.read_text())
    assert report["ok"] is False
    assert report["failures"]
    assert report["failures"][0]["repro"].startswith("python -m repro.check")


def test_cli_reproduce_mode(capsys):
    code = check_cli.main(
        ["--scenario", "racy-counter", "--seed", "0", "--features", "place"]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert "completed in" in shown and "count" in shown


def test_cli_rejects_unknown_scenario(capsys):
    assert check_cli.main(["--scenarios", "no-such-thing"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
