"""Transactional PR_UNSHARE / PR_SETSHMASK: the dynamic sharing
lifecycle, its error paths, and the crash-safe partial-failure unwinds.

The injection tests are the heart: each named ``unshare.*`` failpoint is
armed on its first hit and the caller must come out fully in the group —
same mask, same membership, sharing still functional — with a retry of
the same unshare succeeding and the post-run audit spotless.
"""

import pytest

from repro import (
    O_CREAT,
    O_RDWR,
    PR_GETNSHARE,
    PR_GETSHMASK,
    PR_SADDR,
    PR_SALL,
    PR_SDIR,
    PR_SFDS,
    PR_SETSHMASK,
    PR_UNSHARE,
    System,
    status_code,
)
from repro.errors import EBADF, EINVAL, ENOMEM
from repro.kernel.flags import ALL_SYNC, SFDSYNC
from repro.check.invariants import (
    audit_leaks,
    check_shmask_consistency,
    run_invariants,
)
from tests.conftest import run_program


# ----------------------------------------------------------------------
# fd table detach


def test_unshare_fds_detaches_descriptor_table():
    def member(api, out):
        fd = yield from api.open("/pre", O_RDWR | O_CREAT)
        out["fd"] = fd
        rc = yield from api.prctl(PR_UNSHARE, PR_SFDS)
        out["rc"] = rc
        # opened through the now-private table: must NOT propagate
        fd2 = yield from api.open("/post", O_RDWR | O_CREAT)
        out["fd2"] = fd2
        yield from api.write(fd2, b"private")
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        yield from api.getpid()  # sync entry: pick up pending fd updates
        # /pre was opened while sharing: the slot must be here
        data = yield from api.read(out["fd"], 8)
        out["pre_ok"] = data != -1
        # /post was opened after the detach: the slot must NOT be here
        rc = yield from api.read(out["fd2"], 8)
        out["post_rc"] = rc
        out["post_errno"] = yield from api.errno()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["rc"] == PR_SALL & ~PR_SFDS
    assert out["pre_ok"]
    assert out["post_rc"] == -1 and out["post_errno"] == EBADF
    assert sim.kernel.stats["unshares"] == 1
    assert sim.kernel.stats["unshare_unwinds"] == 0
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# PR_SADDR detach


def test_saddr_detach_gives_private_cow_image():
    def member(api, arg):
        out, base = arg
        rc = yield from api.prctl(PR_UNSHARE, PR_SADDR)
        out["rc"] = rc
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        out["nshare"] = yield from api.prctl(PR_GETNSHARE)
        out["seen"] = yield from api.load_word(base)  # COW read of 111
        yield from api.store_word(base, 222)  # private COW break
        out["member_view"] = yield from api.load_word(base)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 111)
        yield from api.sproc(member, PR_SALL, (out, base))
        yield from api.wait()
        out["parent_view"] = yield from api.load_word(base)
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["rc"] == PR_SALL & ~PR_SADDR
    assert out["mask"] == PR_SALL & ~PR_SADDR
    assert out["nshare"] == 2, "still a member for the non-VM resources"
    assert out["seen"] == 111
    assert out["member_view"] == 222
    assert out["parent_view"] == 111, "private write never reached the group"
    assert audit_leaks(sim) == []


def test_group_writes_invisible_after_saddr_detach():
    def member(api, arg):
        out, base, done_w, go_r = arg
        yield from api.prctl(PR_UNSHARE, PR_SADDR)
        yield from api.write(done_w, b"d")  # detach committed
        yield from api.read(go_r, 1)  # wait for the parent's store
        out["member_view"] = yield from api.load_word(base)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 5)
        done = yield from api.pipe()
        go = yield from api.pipe()
        yield from api.sproc(member, PR_SALL, (out, base, done[1], go[0]))
        yield from api.read(done[0], 1)  # member has detached
        yield from api.store_word(base, 6)  # shared-side write
        yield from api.write(go[1], b"g")
        yield from api.wait()
        out["parent_view"] = yield from api.load_word(base)
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["member_view"] == 5, "group write after detach stayed invisible"
    assert out["parent_view"] == 6
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# departure and mask-validation semantics


def test_unshare_all_leaves_group():
    def member(api, out):
        rc = yield from api.prctl(PR_UNSHARE, PR_SALL)
        out["rc"] = rc
        out["nshare"] = yield from api.prctl(PR_GETNSHARE)
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        out["main_nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["rc"] == 0
    assert out["nshare"] == 0 and out["mask"] == 0
    assert out["main_nshare"] == 1
    assert audit_leaks(sim) == []
    assert sim.kernel.stats["groups_freed"] == 1


def test_unshare_rejects_bits_outside_pr_sall():
    def member(api, out):
        rc = yield from api.prctl(PR_UNSHARE, 0x10000 | PR_SFDS)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["rc"] == -1 and out["errno"] == EINVAL
    assert out["mask"] == PR_SALL, "rejected mask must not clear anything"
    assert sim.kernel.stats["unshares"] == 0


def test_unshare_outside_group_is_einval():
    def main(api, out):
        rc = yield from api.prctl(PR_UNSHARE, PR_SFDS)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _sim = run_program(main)
    assert out["rc"] == -1 and out["errno"] == EINVAL


# ----------------------------------------------------------------------
# PR_SETSHMASK: tighten-only


def test_setshmask_tightens_and_rejects_widening():
    def member(api, out):
        yield from api.prctl(PR_UNSHARE, PR_SFDS)  # now PR_SALL & ~PR_SFDS
        rc = yield from api.prctl(PR_SETSHMASK, PR_SALL)  # widen back: no
        out["widen_rc"] = rc
        out["widen_errno"] = yield from api.errno()
        rc = yield from api.prctl(PR_SETSHMASK, 0x10000)
        out["bad_rc"] = rc
        out["bad_errno"] = yield from api.errno()
        rc = yield from api.prctl(PR_SETSHMASK, PR_SADDR | PR_SDIR)
        out["tight_rc"] = rc
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        out["nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["widen_rc"] == -1 and out["widen_errno"] == EINVAL
    assert out["bad_rc"] == -1 and out["bad_errno"] == EINVAL
    assert out["tight_rc"] == PR_SADDR | PR_SDIR
    assert out["mask"] == PR_SADDR | PR_SDIR
    assert out["nshare"] == 2
    assert audit_leaks(sim) == []


def test_setshmask_outside_group_is_einval():
    def main(api, out):
        rc = yield from api.prctl(PR_SETSHMASK, 0)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _sim = run_program(main)
    assert out["rc"] == -1 and out["errno"] == EINVAL


@pytest.mark.parametrize(
    "mask", [PR_SALL, PR_SADDR | PR_SFDS], ids=["sall", "saddr-sfds"]
)
def test_setshmask_accepts_the_mask_getshmask_reports(mask):
    """PR_GETSHMASK's value is a valid PR_SETSHMASK argument: a no-op
    that returns the same mask."""

    def member(api, out):
        out["got"] = yield from api.prctl(PR_GETSHMASK)
        out["rc"] = yield from api.prctl(PR_SETSHMASK, out["got"])
        out["after"] = yield from api.prctl(PR_GETSHMASK)
        return 0

    def main(api, out):
        yield from api.sproc(member, mask, out)
        yield from api.wait()
        return 0

    out, sim = run_program(main)
    assert out["got"] == out["rc"] == out["after"] == mask
    assert sim.kernel.stats["unshares"] == 0


def test_setshmask_to_zero_leaves_group():
    def member(api, out):
        rc = yield from api.prctl(PR_SETSHMASK, 0)
        out["rc"] = rc
        out["nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["rc"] == 0 and out["nshare"] == 0
    assert sim.kernel.stats["groups_freed"] == 1
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# injected partial failures: the transaction must unwind


@pytest.mark.parametrize(
    "site",
    ["unshare.uarea", "unshare.fds", "unshare.aspace", "unshare.pregion"],
)
def test_injected_unshare_failure_unwinds(site):
    def member(api, arg):
        out, base = arg
        fd = yield from api.open("/u", O_RDWR | O_CREAT)
        rc = yield from api.prctl(PR_UNSHARE, PR_SALL)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        out["nshare"] = yield from api.prctl(PR_GETNSHARE)
        # sharing must still work end to end after the failed attempt:
        yield from api.store_word(base, 77)  # via the still-shared VM
        yield from api.write(fd, b"x")  # via the still-shared fd table
        # the nth:1 plan is spent, so the same transaction now commits
        rc2 = yield from api.prctl(PR_UNSHARE, PR_SALL)
        out["rc2"] = rc2
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.sproc(member, PR_SALL, (out, base))
        yield from api.wait()
        out["shared_view"] = yield from api.load_word(base)
        return 0

    out = {}
    sim = System(ncpus=2, lockdep=True, inject={site: "nth:1"})
    sim.spawn(main, out)
    sim.run()
    assert out["rc"] == -1 and out["errno"] == ENOMEM
    assert out["mask"] == PR_SALL, "failed unshare must not drop any bit"
    assert out["nshare"] == 2, "caller stayed a full member"
    assert out["shared_view"] == 77
    assert out["rc2"] == 0, "retry after the injected failure succeeds"
    assert sim.kernel.stats["unshare_unwinds"] == 1
    assert sim.machine.inject.fired.get(site) == 1
    assert sim.lockdep.violations == []
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# exec-leaves-group semantics


def test_exec_keep_group_with_only_saddr_leaves_group():
    def fresh(api, arg):
        n = yield from api.prctl(PR_GETNSHARE)
        return n

    def execer(api, arg):
        yield from api.exec("/bin/fresh", keep_group=True)
        return 99

    def main(api, out):
        yield from api.sproc(execer, PR_SADDR)
        pid, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/fresh", fresh)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    # Only the address space was shared; exec replaces it, so keeping
    # membership would share nothing — the image must run groupless.
    assert out["code"] == 0
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# the shmask-consistency checker itself


def test_shmask_checker_flags_manufactured_inconsistencies():
    def spinner(api, arg):
        while True:
            yield from api.yield_cpu()

    def main(api, arg):
        yield from api.sproc(spinner, PR_SALL)
        while True:
            yield from api.yield_cpu()

    sim = System(ncpus=2)
    sim.spawn(main)
    sim.run(until=20_000, check_deadlock=False)
    assert check_shmask_consistency(sim) == []
    member = next(
        proc for proc in sim.kernel.proc_table.all_procs()
        if proc.alive() and proc.shaddr is not None and proc.pid != 1
    )
    # 1. PR_SADDR clear while still attached to the shared VM
    member.p_shmask &= ~PR_SADDR
    assert any(
        "PR_SADDR clear" in f for f in check_shmask_consistency(sim)
    )
    member.p_shmask |= PR_SADDR
    # 2. sync flag pending for an already-unshared resource
    member.p_flag |= SFDSYNC
    member.p_shmask &= ~PR_SFDS
    assert any(
        "sync flag" in f for f in check_shmask_consistency(sim)
    )
    member.p_shmask |= PR_SFDS
    member.p_flag &= ~ALL_SYNC
    # 3. a mask (and shared VM) without any group
    block = member.shaddr
    member.shaddr = None
    findings = check_shmask_consistency(sim)
    assert any("no share group" in f for f in findings)
    member.shaddr = block
    assert check_shmask_consistency(sim) == []
    assert "shmask-consistency" not in " ".join(run_invariants(sim))


# ----------------------------------------------------------------------
# the unshare-churn scenario: determinism and sweep coverage


def test_unshare_churn_cycle_identical_across_observability():
    from repro.check.scenarios import SCENARIOS

    sc = SCENARIOS["unshare-churn"]
    results = []
    for lockdep, metrics in ((False, False), (True, True)):
        out = {}
        sim = System(ncpus=sc.ncpus, lockdep=lockdep, metrics_enabled=metrics)
        sim.spawn(sc.main, out, name=sc.name)
        sim.run()
        assert audit_leaks(sim) == []
        results.append((dict(out), sim.now))
    assert results[0] == results[1]
    expected = {
        "lifecycle-0": 900, "lifecycle-1": 901, "tightener": 302,
        "faulter": 102, "shared-0": 200, "shared-1": 201,
        "shared-2": 302, "exiter": 403,
    }
    assert results[0][0] == expected


def test_unshare_churn_reaches_every_unshare_site():
    from repro.check.scenarios import SCENARIOS

    _out, sim = SCENARIOS["unshare-churn"].run(record=True)
    assert audit_leaks(sim) == []
    hits = sim.machine.inject.hits
    for site in (
        "unshare.uarea", "unshare.fds", "unshare.aspace", "unshare.pregion"
    ):
        assert hits.get(site, 0) >= 1, "scenario never reached %s" % site


def test_unshare_kstat_counters():
    from repro.check.scenarios import SCENARIOS

    sc = SCENARIOS["unshare-churn"]
    out = {}
    sim = System(ncpus=sc.ncpus, metrics_enabled=True)
    sim.spawn(sc.main, out, name=sc.name)
    sim.run()
    kstat = sim.machine.kstat
    assert kstat.get("kernel", 0, "unshare_calls") == sim.kernel.stats["unshares"]
    assert kstat.get("kernel", 0, "unshare_calls") >= 7
    assert kstat.get("kernel", 0, "unshare_unwinds") == 0
    assert kstat.get("kernel", 0, "unshare_fds_copied") >= 1
    assert kstat.get("kernel", 0, "unshare_pregions_copied") >= 1
