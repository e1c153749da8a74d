"""Share-group VM edges: stack ceilings, group-visible shm, exec/last-member,
updater progress under scanning."""

import pytest

from repro import (
    IPC_CREAT,
    PR_GETSTACKSIZE,
    PR_SADDR,
    PR_SALL,
    PR_SETSTACKSIZE,
    SIGSEGV,
    System,
    status_code,
    status_signal,
)
from repro.check.invariants import audit_leaks
from repro.errors import EINVAL, ENOMEM
from repro.mem import layout
from repro.mem.frames import PAGE_SIZE
from repro.share.prctl import MAX_STACK
from tests.conftest import run_program


def test_stack_ceiling_applies_to_group_stacks():
    """prctl(PR_SETSTACKSIZE) before group creation bounds every
    member's stack growth (the paper: 'indirectly controls the layout
    of the shared VM image')."""
    small = 8 * PAGE_SIZE

    def deep(api, arg):
        from repro.mem.region import RegionType

        # our own stack is the lowest-placed one (later slots grow down);
        # the creator's stack above was carved before the prctl and keeps
        # the default ceiling
        stack = min(
            (
                pregion for pregion, shared in api.proc.vm.iter_pregions()
                if pregion.rtype is RegionType.STACK and shared
            ),
            key=lambda pregion: pregion.vhigh,
        )
        # within the ceiling: fine
        yield from api.store_word(stack.vhigh - small + 16, 1)
        # beyond it: fatal
        yield from api.store_word(stack.vhigh - small - PAGE_SIZE, 1)
        return 0

    def main(api, out):
        yield from api.prctl(PR_SETSTACKSIZE, small)
        yield from api.sproc(deep, PR_SALL)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGSEGV


def _noop(api, arg):
    yield from api.compute(10)
    return 0


def _own_stack(api):
    """A member's own stack: the group's lowest, as the last carved."""
    from repro.mem.region import RegionType

    return min(
        (
            pregion for pregion, shared in api.proc.vm.iter_pregions()
            if pregion.rtype is RegionType.STACK and shared
        ),
        key=lambda pregion: pregion.vhigh,
    )


def test_stack_size_set_inside_a_group_sizes_the_next_stack():
    """PR_SETSTACKSIZE after the group exists is group-wide: the next
    child's stack is carved at the size its PR_GETSTACKSIZE reports."""
    small = 64 * 1024

    def probe(api, out):
        out["size"] = yield from api.prctl(PR_GETSTACKSIZE)
        out["ceiling"] = _own_stack(api).max_pages * PAGE_SIZE
        return 0

    def main(api, out):
        yield from api.sproc(_noop, PR_SALL)
        yield from api.wait()
        yield from api.prctl(PR_SETSTACKSIZE, small)
        yield from api.sproc(probe, PR_SALL, out)
        yield from api.wait()
        return 0

    out, sim = run_program(main)
    assert out["size"] == out["ceiling"] == small
    assert audit_leaks(sim) == []


def test_a_smaller_stack_is_carved_below_the_leaders_reservation():
    """PR_SETSTACKSIZE before the first sproc: the child's stack lies
    below the leader's whole 1 MB reservation, so the leader's own stack
    growth never writes into it, and growth past that reservation is
    SIGSEGV."""
    small = 64 * 1024
    # inside the leader's reservation, where the child's top word would
    # sit were its stack carved at the old slot formula
    deep = layout.STACK_TOP - small - layout.STACK_GAP - 4
    # just below the leader's reservation
    below = layout.STACK_TOP - layout.DEFAULT_STACK_MAX - 4

    def child(api, arg):
        ctl, out = arg
        word = _own_stack(api).vhigh - 4
        yield from api.store_word(word, 0xC0FFEE)
        yield from api.store_word(ctl, 1)
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        out["child"] = yield from api.load_word(word)
        return 0

    def leader(api, out):
        ctl = yield from api.mmap(PAGE_SIZE)
        yield from api.prctl(PR_SETSTACKSIZE, small)
        yield from api.sproc(child, PR_SALL, (ctl, out))
        while (yield from api.load_word(ctl)) == 0:
            yield from api.yield_cpu()
        yield from api.store_word(deep, 0xDEAD)  # the leader's own growth
        yield from api.store_word(ctl + 4, 1)
        yield from api.wait()
        out["deep"] = yield from api.load_word(deep)
        yield from api.store_word(below, 1)
        return 0

    def main(api, out):
        yield from api.fork(leader, out)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, sim = run_program(main)
    assert out["child"] == 0xC0FFEE
    assert out["deep"] == 0xDEAD
    assert out["sig"] == SIGSEGV
    assert audit_leaks(sim) == []


def test_stack_size_reaching_the_map_arena_is_einval():
    """A stack reservation larger than slot 0 can hold above the map
    arena is EINVAL and keeps the old size, so a group created next
    still maps a large region without hitting a stack."""

    def main(api, out):
        for size in (1 << 30, 2**40):
            rc = yield from api.prctl(PR_SETSTACKSIZE, size)
            out[size] = (rc, (yield from api.errno()))
        out["kept"] = yield from api.prctl(PR_GETSTACKSIZE)
        out["sproc"] = yield from api.sproc(_noop, PR_SALL)
        out["base"] = yield from api.mmap(256 << 20)
        yield from api.wait()
        out["max"] = yield from api.prctl(PR_SETSTACKSIZE, MAX_STACK)
        return 0

    out, sim = run_program(main)
    assert out[1 << 30] == out[2**40] == (-1, EINVAL)
    assert out["kept"] == layout.DEFAULT_STACK_MAX
    assert out["sproc"] > 0
    assert out["base"] == layout.MAP_BASE
    assert out["max"] == MAX_STACK == layout.STACK_TOP - layout.MAP_LIMIT
    assert audit_leaks(sim) == []


@pytest.mark.parametrize(
    "mask", [PR_SALL, PR_SALL & ~PR_SADDR], ids=["shared-vm", "cow-image"]
)
def test_sproc_without_a_stack_slot_above_the_map_arena_is_enomem(mask):
    """At the largest stack size only slot 0 fits: sproc fails ENOMEM,
    unwound with nothing carved, and the whole arena stays mappable."""

    def main(api, out):
        yield from api.prctl(PR_SETSTACKSIZE, MAX_STACK)
        out["pid"] = yield from api.sproc(_noop, mask)
        out["errno"] = yield from api.errno()
        out["base"] = yield from api.mmap(layout.MAP_LIMIT - layout.MAP_BASE)
        yield from api.store_word(layout.MAP_LIMIT - 4, 1)
        return 0

    out, sim = run_program(main)
    assert out["pid"] == -1 and out["errno"] == ENOMEM
    assert out["base"] == layout.MAP_BASE
    assert sim.kernel.stats["sprocs"] == 0
    assert audit_leaks(sim) == []


def test_sysv_shm_attach_is_group_visible():
    """A VM-sharing member's shmat lands on the shared pregion list, so
    the whole group sees the segment (section 6.2's mmap rule)."""

    def attacher(api, ctl):
        shmid = yield from api.shmget(99, 4096, IPC_CREAT)
        base = yield from api.shmat(shmid)
        yield from api.store_word(base, 4242)
        yield from api.store_word(ctl, base)
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        return 0

    def main(api, out):
        ctl = yield from api.mmap(4096)
        yield from api.sproc(attacher, PR_SALL, ctl)
        while True:
            base = yield from api.load_word(ctl)
            if base:
                break
            yield from api.yield_cpu()
        out["seen"] = yield from api.load_word(base)  # no shmat of our own!
        yield from api.store_word(ctl + 4, 1)
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["seen"] == 4242


def test_exec_by_last_member_frees_group():
    def image(api, arg):
        return 3
        yield

    def solo(api, arg):
        yield from api.exec("/bin/image")
        return 99

    def main(api, out):
        yield from api.sproc(solo, PR_SALL)
        # leave the group ourselves first, via... we can't; instead wait
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/image", image)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    assert out["code"] == 3
    # group persists until main (also a member) exits; then it frees
    assert sim.stats["groups_freed"] == 1


def test_updater_makes_progress_against_scanners():
    """Reader-preference starvation is real but bounded by the scan
    workload: once the faulting members finish, the blocked updater's
    mmap completes (no permanent starvation, no lost wakeup)."""

    def faulter(api, ctx):
        base, npages, index = ctx
        for page in range(npages):
            yield from api.store_word(
                base + (index * npages + page) * PAGE_SIZE, 1
            )
        return 0

    def mapper(api, out):
        start = api.now
        block = yield from api.mmap(4096)  # needs the update lock
        out["mmap_waited"] = api.now - start
        yield from api.store_word(block, 1)
        return 0

    def main(api, out):
        npages, nprocs = 32, 3
        base = yield from api.mmap(nprocs * npages * PAGE_SIZE)
        for index in range(nprocs):
            yield from api.sproc(faulter, PR_SALL, (base, npages, index))
        yield from api.sproc(mapper, PR_SALL, out)
        for _ in range(nprocs + 1):
            yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=4)
    assert "mmap_waited" in out, "the updater must eventually run"


def test_group_survives_member_killed_mid_fault_storm():
    from repro import SIGKILL

    def faulter(api, base):
        page = 0
        while True:
            yield from api.store_word(base + (page % 64) * PAGE_SIZE, page)
            page += 1

    def main(api, out):
        base = yield from api.mmap(64 * PAGE_SIZE)
        pid = yield from api.sproc(faulter, PR_SALL, base)
        yield from api.compute(150_000)
        yield from api.kill(pid, SIGKILL)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        # the group (main alone now) still works
        block = yield from api.mmap(4096)
        yield from api.store_word(block, 7)
        out["after"] = yield from api.load_word(block)
        return 0

    out, _ = run_program(main, ncpus=2)
    from repro import SIGKILL

    assert out["sig"] == SIGKILL
    assert out["after"] == 7


def test_many_sequential_groups_do_not_leak():
    def member(api, arg):
        base = yield from api.mmap(4 * PAGE_SIZE)
        yield from api.store_word(base, 1)
        return 0

    def leader(api, arg):
        yield from api.sproc(member, PR_SALL)
        yield from api.wait()
        return 0

    def main(api, out):
        for _ in range(6):
            yield from api.fork(leader)
            yield from api.wait()
        out["frames"] = api.kernel.machine.frames.allocated
        return 0

    out, sim = run_program(main)
    assert sim.stats["groups_freed"] == 6
    assert out["frames"] < 20
