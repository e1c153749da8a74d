"""The lock dependency checker: every violation class, minimally.

Each misuse class gets a two-lock repro driven straight through the
hooks, plus one end-to-end inversion caught inside a real guest
program.  The final tests pin the zero-cost-when-disabled contract:
lockdep on vs. off must not move a single simulated cycle.
"""

import pytest

from repro import PR_SALL, System
from repro.obs.lockdep import (
    NULL_LOCKDEP,
    LockOrderViolation,
    lock_class,
)
from repro.runtime.ulocks import USpinLock
from repro.sim.machine import Machine
from tests.conftest import run_program


class _Lock:
    """The minimal thing lockdep needs: a named identity."""

    def __init__(self, name):
        self.name = name


class _Ctx:
    def __init__(self, pid, name="ctx"):
        self.pid = pid
        self.name = name


def _dep():
    return Machine(ncpus=1, lockdep_enabled=True).lockdep


# ----------------------------------------------------------------------
# class naming


def test_lock_class_strips_instance_suffixes():
    assert lock_class("wait:12") == "wait"
    assert lock_class("uspin@0x40021000") == "uspin"
    assert lock_class("runq3") == "runq"
    assert lock_class("shaddr.vm.acclck") == "shaddr.vm.acclck"
    assert lock_class("123") == "123", "all-digit names survive"


# ----------------------------------------------------------------------
# order inversion


def test_order_inversion_two_locks():
    dep = _dep()
    lock_a, lock_b = _Lock("alpha"), _Lock("beta")
    first, second = _Ctx(1), _Ctx(2)

    dep.attempt(lock_a, first, "spin")
    dep.acquired(lock_a, first, "spin")
    dep.attempt(lock_b, first, "spin")  # records alpha -> beta
    dep.acquired(lock_b, first, "spin")
    dep.released(lock_b, first)
    dep.released(lock_a, first)
    assert ("alpha", "beta") in dep.edges()

    dep.attempt(lock_b, second, "spin")
    dep.acquired(lock_b, second, "spin")
    with pytest.raises(LockOrderViolation) as caught:
        dep.attempt(lock_a, second, "spin")
    violation = caught.value
    assert violation.kind == "order-inversion"
    assert len(violation.chains) == 2, "both held chains reported"
    rendered = str(violation)
    assert "alpha" in rendered and "beta" in rendered
    assert "conflicting chain" in rendered
    assert dep.violations == [violation]


def test_same_class_nesting_not_reported():
    dep = _dep()
    outer, inner = _Lock("wait:1"), _Lock("wait:2")
    ctx = _Ctx(1)
    dep.attempt(outer, ctx, "spin")
    dep.acquired(outer, ctx, "spin")
    dep.attempt(inner, ctx, "spin")  # same class: no edge, no violation
    dep.acquired(inner, ctx, "spin")
    dep.released(inner, ctx)
    dep.released(outer, ctx)
    # and the reverse order later is fine too
    dep.attempt(inner, ctx, "spin")
    dep.acquired(inner, ctx, "spin")
    dep.attempt(outer, ctx, "spin")
    assert dep.violations == []
    assert dep.edges() == []


# ----------------------------------------------------------------------
# double acquire


def test_double_acquire_exclusive():
    dep = _dep()
    lock = _Lock("only")
    ctx = _Ctx(7)
    dep.attempt(lock, ctx, "spin")
    dep.acquired(lock, ctx, "spin")
    with pytest.raises(LockOrderViolation) as caught:
        dep.attempt(lock, ctx, "spin")
    assert caught.value.kind == "double-acquire"


def test_double_acquire_allows_shared_reacquire():
    dep = _dep()
    lock = _Lock("rw")
    ctx = _Ctx(7)
    dep.attempt(lock, ctx, "read")
    dep.acquired(lock, ctx, "read")
    dep.attempt(lock, ctx, "read")  # recursive read: legal
    dep.acquired(lock, ctx, "read")
    assert dep.violations == []


# ----------------------------------------------------------------------
# sleep while holding a spinlock


def test_sleep_holding_spinlock():
    dep = _dep()
    spin = _Lock("acclck")
    ctx = _Ctx(3)
    dep.attempt(spin, ctx, "spin")
    dep.acquired(spin, ctx, "spin")
    with pytest.raises(LockOrderViolation) as caught:
        dep.sleeping(ctx, "P(updwait)")
    assert caught.value.kind == "sleep-holding-spinlock"
    assert "acclck" in str(caught.value)


def test_sleep_holding_sleeping_lock_is_fine():
    dep = _dep()
    lock = _Lock("vmlock")
    ctx = _Ctx(3)
    dep.attempt(lock, ctx, "read")
    dep.acquired(lock, ctx, "read")
    dep.sleeping(ctx, "P(fupd)")  # blocking under a sleepable lock: legal
    assert dep.violations == []


# ----------------------------------------------------------------------
# release by non-owner


def test_release_non_owner():
    dep = _dep()
    lock = _Lock("slot")
    owner, thief = _Ctx(1), _Ctx(2)
    dep.attempt(lock, owner, "spin")
    dep.acquired(lock, owner, "spin")
    with pytest.raises(LockOrderViolation) as caught:
        dep.released(lock, thief)
    assert caught.value.kind == "release-non-owner"
    assert dep.held_by(owner), "owner still holds after the bad release"


def test_release_anonymous_credits_recorded_holder():
    dep = _dep()
    lock = _Lock("slot")
    owner = _Ctx(1)
    dep.attempt(lock, owner, "spin")
    dep.acquired(lock, owner, "spin")
    dep.released(lock)  # ctx unknown: pops the recorded holder, no check
    assert dep.held_by(owner) == []


# ----------------------------------------------------------------------
# the unshare copy-out lock order, pinned


def test_unshare_copyout_lock_order_pinned():
    """``do_unshare`` nests s_fupdsema -> vm update lock -> s_listlock;
    record that chain, then prove the checker rejects the reversal —
    any future copy-out path taking these locks the other way is a
    deadlock candidate and must fail this test."""
    dep = _dep()
    fupd = _Lock("shaddr.fupd")
    vm = _Lock("shaddr.vm")
    listlock = _Lock("shaddr.list")
    ctx = _Ctx(1)
    dep.attempt(fupd, ctx, "sema")
    dep.acquired(fupd, ctx, "sema")
    dep.attempt(vm, ctx, "update")
    dep.acquired(vm, ctx, "update")
    dep.attempt(listlock, ctx, "spin")
    dep.acquired(listlock, ctx, "spin")
    dep.released(listlock, ctx)
    dep.released(vm, ctx)
    dep.released(fupd, ctx)
    assert ("shaddr.fupd", "shaddr.vm") in dep.edges()
    assert ("shaddr.vm", "shaddr.list") in dep.edges()

    other = _Ctx(2)
    dep.attempt(vm, other, "update")
    dep.acquired(vm, other, "update")
    with pytest.raises(LockOrderViolation) as caught:
        dep.attempt(fupd, other, "sema")
    assert caught.value.kind == "order-inversion"
    rendered = str(caught.value)
    assert "shaddr.fupd" in rendered and "shaddr.vm" in rendered


def test_unshare_workload_clean_under_lockdep():
    """A full lifecycle — fds, then the address space, then departure —
    exercises the real copy-out nesting without a single violation."""
    from repro import O_CREAT, O_RDWR, PR_SADDR, PR_SFDS, PR_UNSHARE

    def member(api, base):
        fd = yield from api.open("/ul", O_RDWR | O_CREAT)
        yield from api.prctl(PR_UNSHARE, PR_SFDS)
        yield from api.close(fd)
        yield from api.store_word(base, 11)
        yield from api.prctl(PR_UNSHARE, PR_SADDR)
        yield from api.store_word(base, 22)
        yield from api.prctl(PR_UNSHARE, PR_SALL)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        for _ in range(2):
            yield from api.sproc(member, PR_SALL, base)
        for _ in range(2):
            yield from api.wait()
        out["shared"] = yield from api.load_word(base)
        return 0

    out, sim = run_program(main, ncpus=2, lockdep=True)
    assert out["shared"] == 11, "post-detach stores stayed private"
    assert sim.lockdep.violations == []
    assert sim.lockdep.checks > 0


# ----------------------------------------------------------------------
# end to end: a guest program trips the checker


def test_guest_inversion_detected():
    """ABBA ordering across two user spinlocks raises mid-simulation,
    even though the single process never actually deadlocks."""

    def main(api, out):
        base = yield from api.mmap(4096)
        lock_a = USpinLock(base, name="locka")
        lock_b = USpinLock(base + 4, name="lockb")
        yield from lock_a.acquire(api)
        yield from lock_b.acquire(api)
        yield from lock_b.release(api)
        yield from lock_a.release(api)
        yield from lock_b.acquire(api)
        yield from lock_a.acquire(api)  # inversion: boom
        return 0

    sim = System(ncpus=1, lockdep=True)
    sim.spawn(main, {}, name="init")
    with pytest.raises(LockOrderViolation) as caught:
        sim.run()
    assert caught.value.kind == "order-inversion"
    assert sim.lockdep.violations == [caught.value]
    rendered = str(caught.value)
    assert "locka" in rendered and "lockb" in rendered


def test_clean_workload_passes_and_builds_graph():
    """A real share-group workload runs violation-free under lockdep,
    and the checker has actually seen kernel lock nesting."""

    def member(api, base):
        for index in range(8):
            yield from api.store_word(base + index * 4096, index)
        return 0

    def main(api, out):
        base = yield from api.mmap(16 * 4096)
        for _ in range(3):
            yield from api.sproc(member, PR_SALL, base)
        for _ in range(3):
            yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2, lockdep=True)
    assert sim.lockdep.violations == []
    assert sim.lockdep.checks > 0
    assert "lock-order graph" in sim.lockdep.report()


# ----------------------------------------------------------------------
# disabled: shared null object, identical cycle counts


def test_disabled_machines_share_null_lockdep():
    assert Machine(ncpus=1).lockdep is NULL_LOCKDEP
    assert Machine(ncpus=2).lockdep is NULL_LOCKDEP
    assert not NULL_LOCKDEP.enabled
    assert NULL_LOCKDEP.report() == "lockdep disabled"


def test_lockdep_does_not_move_cycles():
    """Enabling the checker must not change a single simulated cycle."""

    def member(api, base):
        lock = USpinLock(base)
        for _ in range(5):
            yield from lock.acquire(api)
            value = yield from api.load_word(base + 4)
            yield from api.store_word(base + 4, value + 1)
            yield from lock.release(api)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        for _ in range(3):
            yield from api.sproc(member, PR_SALL, base)
        for _ in range(3):
            yield from api.wait()
        out["count"] = yield from api.load_word(base + 4)
        return 0

    results = []
    for enabled in (False, True):
        out, sim = run_program(main, ncpus=2, lockdep=enabled)
        results.append((out["count"], sim.now))
    assert results[0] == results[1]
