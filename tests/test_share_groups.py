"""Tests for the paper's core contribution: process share groups.

Each test pins down a behaviour stated in the paper — section references
in the docstrings.
"""

import pytest

from repro import (
    O_CREAT,
    O_RDWR,
    PR_GETNSHARE,
    PR_GETSHMASK,
    PR_SADDR,
    PR_SALL,
    PR_SFDS,
    PR_UNSHARE,
    SEEK_SET,
    System,
    status_code,
)
from repro.check.invariants import audit_leaks
from repro.errors import EBADF, EINVAL
from repro.kernel.flags import ALL_SYNC
from repro.mem.layout import DATA_BASE
from repro.share import resources
from tests.conftest import run_program


# ----------------------------------------------------------------------
# group creation and membership


def test_first_sproc_creates_group():
    """Section 5.1: the first sproc() call creates a share group."""

    def child(api, out):
        out["child_nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    def main(api, out):
        out["before"] = yield from api.prctl(PR_GETNSHARE)
        yield from api.sproc(child, PR_SALL, out)
        out["after"] = yield from api.prctl(PR_GETNSHARE)
        yield from api.wait()
        return 0

    out, sim = run_program(main)
    assert out["before"] == 0
    assert out["after"] == 2
    assert out["child_nshare"] == 2
    assert sim.stats["groups_created"] == 1


def test_group_freed_when_last_member_exits():
    def child(api, arg):
        yield from api.compute(100)
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SALL)
        yield from api.wait()
        return 0

    out, sim = run_program(main)
    assert sim.stats["groups_created"] == 1
    assert sim.stats["groups_freed"] == 1


def test_grandchildren_join_the_same_group():
    """Section 5.1: sproc from any member adds to the parent's group."""

    def grandchild(api, out):
        out["gc_nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    def child(api, out):
        yield from api.sproc(grandchild, PR_SALL, out)
        yield from api.wait()
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SALL, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["gc_nshare"] == 3


def test_original_process_shares_everything():
    def main(api, out):
        yield from api.sproc(lambda api, a: iter(()), PR_SADDR)
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        yield from api.wait()
        return 0

    def noop(api, a):
        return 0
        yield

    def main2(api, out):
        yield from api.sproc(noop, PR_SADDR)
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        yield from api.wait()
        return 0

    out, _ = run_program(main2)
    assert out["mask"] == 0xFFFF  # PR_SALL


# ----------------------------------------------------------------------
# strict inheritance (section 5.1)


def test_strict_inheritance_of_share_mask():
    """A child can only share what its parent shares."""

    def grandchild(api, out):
        out["gc_mask"] = yield from api.prctl(PR_GETSHMASK)
        return 0

    def child(api, out):
        out["c_mask"] = yield from api.prctl(PR_GETSHMASK)
        # asks for everything, but parent only had SADDR|SFDS
        yield from api.sproc(grandchild, PR_SALL, out)
        yield from api.wait()
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SADDR | PR_SFDS, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["c_mask"] == PR_SADDR | PR_SFDS
    assert out["gc_mask"] == PR_SADDR | PR_SFDS


def test_sproc_refuses_bits_outside_pr_sall_before_the_group_exists():
    """A share mask holds resource bits only: sproc with a bit outside
    PR_SALL is EINVAL, and the refused call creates no group."""

    def child(api, arg):
        yield from api.compute(10)
        return 0

    def main(api, out):
        out["pid"] = yield from api.sproc(child, PR_SALL | 0x20000)
        out["errno"] = yield from api.errno()
        out["nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    out, sim = run_program(main)
    assert out["pid"] == -1 and out["errno"] == EINVAL
    assert out["nshare"] == 0
    assert sim.kernel.stats["groups_created"] == 0
    assert audit_leaks(sim) == []


def test_unshare_extension_removes_bits():
    def child(api, out):
        yield from api.prctl(PR_UNSHARE, PR_SFDS)
        out["mask"] = yield from api.prctl(PR_GETSHMASK)
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SALL, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert not out["mask"] & PR_SFDS
    assert out["mask"] & PR_SADDR


# ----------------------------------------------------------------------
# address space sharing (sections 5.1 / 6.2)


def test_vm_sharing_members_see_stores():
    """Under PR_SALL a member's stores reach the group, in a mapping
    and in the data segment alike."""

    def child(api, base):
        yield from api.store_word(base, 0xC0FFEE)
        yield from api.store_word(DATA_BASE, 999)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(DATA_BASE, 1)
        yield from api.sproc(child, PR_SALL, base)
        yield from api.wait()
        out["value"] = yield from api.load_word(base)
        out["data"] = yield from api.load_word(DATA_BASE)
        return 0

    out, _ = run_program(main)
    assert out["value"] == 0xC0FFEE
    assert out["data"] == 999


def test_non_vm_sharing_member_gets_cow_copy():
    """Section 5.1: without PR_SADDR the child sees a copy-on-write image."""

    def child(api, base):
        seen = yield from api.load_word(base)
        yield from api.store_word(base, 222)
        return 0 if seen == 111 else 1

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 111)
        yield from api.sproc(child, PR_SALL & ~PR_SADDR, base)
        pid, status = yield from api.wait()
        out["child_ok"] = status_code(status) == 0
        out["parent_view"] = yield from api.load_word(base)
        return 0

    out, _ = run_program(main)
    assert out["child_ok"], "child must see the pre-sproc value"
    assert out["parent_view"] == 111, "child's write must not leak back"


def test_child_stack_visible_to_group():
    """Section 5.1: 'This new stack is visible to all other processes in
    the share group.'"""

    def child(api, ctl):
        # Publish an address *within the child's own stack region* by
        # storing a marker there and telling the parent where it is.
        from repro.mem.region import RegionType

        stack = next(
            pregion
            for pregion, shared in api.proc.vm.iter_pregions()
            if pregion.rtype is RegionType.STACK and shared
            and pregion.contains(pregion.vhigh - 8)
        )
        spot = stack.vhigh - 64
        yield from api.store_word(spot, 0xBEEF)
        yield from api.store_word(ctl, spot)
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        return 0

    def main(api, out):
        ctl = yield from api.mmap(4096)
        yield from api.sproc(child, PR_SALL, ctl)
        while True:
            spot = yield from api.load_word(ctl)
            if spot:
                break
            yield from api.yield_cpu()
        out["marker"] = yield from api.load_word(spot)
        yield from api.store_word(ctl + 4, 1)
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["marker"] == 0xBEEF


def test_mmap_by_one_member_immediately_visible():
    """Section 6.2: a new pregion is immediately seen by all members."""

    def child(api, ctl):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 77)
        yield from api.store_word(ctl, base)
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        return 0

    def main(api, out):
        ctl = yield from api.mmap(4096)
        yield from api.sproc(child, PR_SALL, ctl)
        while True:
            base = yield from api.load_word(ctl)
            if base:
                break
            yield from api.yield_cpu()
        out["value"] = yield from api.load_word(base)
        yield from api.store_word(ctl + 4, 1)
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["value"] == 77


def test_region_shrink_performs_shootdown():
    """Section 6.2: shrinking shared space flushes all TLBs synchronously."""

    def child(api, arg):
        yield from api.compute(200_000)
        return 0

    def main(api, out):
        base = yield from api.mmap(16 * 4096)
        yield from api.store_word(base, 1)
        yield from api.sproc(child, PR_SALL)
        yield from api.munmap(base)
        yield from api.wait()
        return 0

    out, sim = run_program(main)
    assert sim.stats["shootdowns"] >= 1
    assert sim.machine.shootdowns >= 1


@pytest.mark.parametrize("ncpus", [1, 2])
def test_prda_is_private_per_member(ncpus):
    """Section 5.1: the PRDA stays private so errno etc. works.

    One CPU runs both members in turn under the group's ASID, so the
    child's PRDA translation must leave the TLB when the child does.
    """
    from repro.runtime.prda import PRDA_USER

    def child(api, ctl):
        yield from api.store_word(PRDA_USER, 42)
        yield from api.store_word(ctl, 1)
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        return 0

    def main(api, out):
        ctl = yield from api.mmap(4096)
        yield from api.store_word(PRDA_USER, 7)
        yield from api.sproc(child, PR_SALL, ctl)
        while (yield from api.load_word(ctl)) == 0:
            yield from api.yield_cpu()
        out["mine"] = yield from api.load_word(PRDA_USER)
        yield from api.store_word(ctl + 4, 1)
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=ncpus)
    assert out["mine"] == 7, "child's PRDA store must not be visible"


@pytest.mark.parametrize("ncpus", [1, 2])
def test_errno_lives_in_prda_per_process(ncpus):
    """Two members fail different syscalls; each sees its own errno."""

    def child(api, out):
        rc = yield from api.close(55)  # EBADF
        out["child_rc"] = rc
        out["child_errno"] = yield from api.errno()
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SALL, out)
        yield from api.wait()
        out["parent_errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main, ncpus=ncpus)
    assert out["child_rc"] == -1
    assert out["child_errno"] == EBADF
    assert out["parent_errno"] == 0, "parent never failed a call"


# ----------------------------------------------------------------------
# descriptor sharing (sections 4 / 6.3)


def test_open_propagates_to_sharing_members():
    def opener(api, out):
        fd = yield from api.open("/shared.dat", O_RDWR | O_CREAT)
        yield from api.write(fd, b"group data")
        out["fd"] = fd
        return 0

    def reader(api, out):
        yield from api.getpid()  # any kernel entry triggers the sync
        fd = out["fd"]
        yield from api.lseek(fd, 0, SEEK_SET)
        out["data"] = yield from api.read(fd, 64)
        return 0

    def main(api, out):
        yield from api.sproc(opener, PR_SALL, out)
        yield from api.wait()
        yield from api.sproc(reader, PR_SALL, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"group data"


def test_close_propagates_too():
    def closer(api, fd):
        yield from api.close(fd)
        return 0

    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.sproc(closer, PR_SALL, fd)
        yield from api.wait()
        rc = yield from api.read(fd, 4)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == EBADF


def test_shared_descriptor_offset_is_common():
    """Footnote 2 / section 4: sharing the descriptor shares the offset."""

    def child(api, fd):
        yield from api.read(fd, 4)  # advance the shared offset
        return 0

    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"abcdefgh")
        yield from api.lseek(fd, 0, SEEK_SET)
        yield from api.sproc(child, PR_SALL, fd)
        yield from api.wait()
        out["rest"] = yield from api.read(fd, 8)
        return 0

    out, _ = run_program(main)
    assert out["rest"] == b"efgh"


def test_nonsharing_member_not_affected_by_open():
    """A member created without PR_SFDS keeps its own descriptor table."""

    def loner(api, ctl):
        yield from api.store_word(ctl, 1)  # ready
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        yield from api.getpid()  # kernel entry; must NOT import the fd
        rc = yield from api.read(3, 4)
        return 0 if rc == -1 else 1

    def main(api, out):
        ctl = yield from api.mmap(4096)
        yield from api.sproc(loner, PR_SALL & ~PR_SFDS, ctl)
        while (yield from api.load_word(ctl)) == 0:
            yield from api.yield_cpu()
        fd = yield from api.open("/f", O_RDWR | O_CREAT)  # becomes fd 3? no: fd 0
        out["fd"] = fd
        yield from api.store_word(ctl + 4, 1)
        pid, status = yield from api.wait()
        out["loner_ok"] = status_code(status) == 0
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["loner_ok"]


# ----------------------------------------------------------------------
# directory / id / umask / ulimit sharing (section 6.3)


def test_chdir_propagates_to_group():
    def mover(api, arg):
        yield from api.chdir("/sub")
        return 0

    def main(api, out):
        yield from api.mkdir("/sub")
        fd = yield from api.open("/sub/x", O_RDWR | O_CREAT)
        yield from api.close(fd)
        yield from api.sproc(mover, PR_SALL)
        yield from api.wait()
        # relative lookup now resolves in /sub
        st = yield from api.stat("x")
        out["found"] = st != -1
        return 0

    out, _ = run_program(main)
    assert out["found"]


def test_setuid_propagates_to_group():
    def changer(api, arg):
        yield from api.setuid(0)  # root can setuid; stays 0... use gid
        yield from api.setgid(55)
        return 0

    def main(api, out):
        yield from api.sproc(changer, PR_SALL)
        yield from api.wait()
        out["gid"] = yield from api.getgid()
        return 0

    out, _ = run_program(main)
    assert out["gid"] == 55


def test_umask_propagates_to_group():
    def changer(api, arg):
        yield from api.umask(0o077)
        return 0

    def main(api, out):
        yield from api.sproc(changer, PR_SALL)
        yield from api.wait()
        fd = yield from api.open("/newfile", O_RDWR | O_CREAT, 0o666)
        st = yield from api.stat("/newfile")
        out["mode"] = st["mode"]
        return 0

    out, _ = run_program(main)
    assert out["mode"] == 0o600


def test_ulimit_propagates_to_group():
    def changer(api, arg):
        yield from api.ulimit(2, 100)  # lower the write limit to 100 bytes
        return 0

    def main(api, out):
        yield from api.sproc(changer, PR_SALL)
        yield from api.wait()
        fd = yield from api.open("/big", O_RDWR | O_CREAT)
        rc = yield from api.write(fd, b"x" * 200)
        out["rc"] = rc
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1, "write beyond the group ulimit must fail"


#: update call -> (the table row it changes, the call, given the
#: descriptor of an open file, and what a u-area holds of the resource)
TABLE_UPDATES = {
    "chdir": (resources.DIR, lambda api, fd: api.chdir("/d"),
              lambda ua: ua.cdir),
    "chroot": (resources.DIR, lambda api, fd: api.chroot("/d"),
               lambda ua: ua.rdir),
    "umask": (resources.UMASK, lambda api, fd: api.umask(0o077),
              lambda ua: ua.cmask),
    "ulimit": (resources.ULIMIT, lambda api, fd: api.ulimit(2, 100),
               lambda ua: ua.ulimit),
    "setuid": (resources.ID, lambda api, fd: api.setuid(7),
               lambda ua: ua.uid),
    "setgid": (resources.ID, lambda api, fd: api.setgid(7),
               lambda ua: ua.gid),
    "open": (resources.FDS, lambda api, fd: api.open("/g", O_RDWR | O_CREAT),
             lambda ua: tuple(ua.fdtable.slots)),
    "close": (resources.FDS, lambda api, fd: api.close(fd),
              lambda ua: tuple(ua.fdtable.slots)),
}


@pytest.mark.parametrize("call", sorted(TABLE_UPDATES))
def test_update_reaches_sharing_peers_at_their_next_entry(call):
    """Every update call (section 6.3): a peer that shares the resource
    still holds the old value until its next kernel entry and the new
    one after it; a peer that dropped the bit with PR_UNSHARE keeps the
    old value."""
    resource, update, view = TABLE_UPDATES[call]

    def peer(api, ctx):
        ctl, index, out = ctx
        if index == 1:
            yield from api.prctl(PR_UNSHARE, resource.bit)
        yield from api.store_word(ctl + 4 * index, 1)  # ready
        while (yield from api.load_word(ctl + 8)) == 0:
            yield from api.compute(100)  # user mode: no kernel entry
        out["before", index] = view(api.proc.uarea)
        yield from api.getpid()
        out["after", index] = view(api.proc.uarea)
        return 0

    def main(api, out):
        yield from api.mkdir("/d")
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        ctl = yield from api.mmap(4096)
        for index in (0, 1):
            yield from api.sproc(peer, PR_SALL, (ctl, index, out))
        for index in (0, 1):
            while (yield from api.load_word(ctl + 4 * index)) == 0:
                yield from api.yield_cpu()
        out["old"] = view(api.proc.uarea)
        out["rc"] = yield from update(api, fd)
        out["new"] = view(api.proc.uarea)
        yield from api.store_word(ctl + 8, 1)  # go
        for _ in (0, 1):
            yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=3)
    assert out["rc"] != -1
    assert out["new"] != out["old"]
    assert out["before", 0] == out["before", 1] == out["old"]
    assert out["after", 0] == out["new"], "the sharing peer syncs at entry"
    assert out["after", 1] == out["old"], "the unshared peer keeps its own"
    assert audit_leaks(sim) == []


def test_sync_bits_cleared_after_entry():
    def opener(api, arg):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        return 0

    def main(api, out):
        yield from api.sproc(opener, PR_SALL)
        yield from api.wait()
        proc = api.proc
        out["bits_before"] = proc.p_flag & ALL_SYNC
        yield from api.getpid()
        out["bits_after"] = proc.p_flag & ALL_SYNC
        return 0

    out, _ = run_program(main)
    assert out["bits_before"] != 0
    assert out["bits_after"] == 0


# ----------------------------------------------------------------------
# leaving the group


def test_exec_removes_from_group():
    def fresh(api, arg):
        n = yield from api.prctl(PR_GETNSHARE)
        return n  # exit code = group size seen after exec

    def execer(api, arg):
        yield from api.exec("/bin/fresh")
        return 99

    def main(api, out):
        yield from api.sproc(execer, PR_SALL)
        pid, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/fresh", fresh)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    assert out["code"] == 0, "exec'd image must not be in the group"


def test_fork_child_is_outside_group():
    def forked(api, out):
        out["forked_nshare"] = yield from api.prctl(PR_GETNSHARE)
        return 0

    def member(api, out):
        yield from api.fork(forked, out)
        yield from api.wait()
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["forked_nshare"] == 0


def test_fork_from_group_gets_cow_of_shared_regions():
    def forked(api, base):
        value = yield from api.load_word(base)
        yield from api.store_word(base, 999)
        return 0 if value == 5 else 1

    def member(api, ctx):
        out, base = ctx
        pid = yield from api.fork(forked, base)
        _, status = yield from api.wait()
        out["fork_ok"] = status_code(status) == 0
        out["after"] = yield from api.load_word(base)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 5)
        yield from api.sproc(member, PR_SALL, (out, base))
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["fork_ok"]
    assert out["after"] == 5, "forked child's write must stay private"


# ----------------------------------------------------------------------
# PR_BLOCKGRP / PR_UNBLKGRP racing exits and unshares: the
# other_members snapshot may name procs that are no longer live members


def test_blockgrp_tolerates_exited_and_detached_members(monkeypatch):
    """Force the stale-snapshot race deterministically: other_members
    hands back a reaped member and one that unshared itself out of the
    group.  Both must be skipped — blocking a non-member (or erroring on
    a dead pid) would be wrong — while the real member still blocks."""
    from repro.share.prctl import PR_BLOCKGRP, PR_UNBLKGRP
    from repro.share.shaddr import SharedAddressBlock

    stale = {}
    probes = {}
    original = SharedAddressBlock.other_members

    def with_stale(self, proc):
        members = original(self, proc)
        members.extend(
            p for p in stale.values() if p is not None and p is not proc
        )
        return members

    monkeypatch.setattr(SharedAddressBlock, "other_members", with_stale)

    def quick_exit(api, arg):
        stale["dead"] = api.proc
        yield from api.getpid()
        return 0

    def detacher(api, arg):
        done_w, park_r = arg
        stale["detached"] = api.proc
        yield from api.prctl(PR_UNSHARE, PR_SALL)  # leaves the group
        yield from api.write(done_w, b"d")
        yield from api.read(park_r, 1)  # alive and groupless while parked
        return 0

    def parked(api, base):
        probes["parked"] = api.proc
        while True:
            value = yield from api.load_word(base)
            if value:
                return 0
            yield from api.yield_cpu()

    def main(api, out):
        base = yield from api.mmap(4096)
        done = yield from api.pipe()
        park = yield from api.pipe()
        yield from api.sproc(quick_exit, PR_SALL)
        yield from api.wait()  # reap: the proc-table entry is gone
        yield from api.sproc(parked, PR_SALL, base)
        yield from api.sproc(detacher, PR_SALL, (done[1], park[0]))
        yield from api.read(done[0], 1)  # detacher has left the group
        out["rc_block"] = yield from api.prctl(PR_BLOCKGRP)
        out["parked_bc"] = probes["parked"].block_count
        out["detached_bc"] = stale["detached"].block_count
        out["rc_unblock"] = yield from api.prctl(PR_UNBLKGRP)
        yield from api.store_word(base, 1)  # release the parked member
        yield from api.write(park[1], b"g")  # release the detacher
        yield from api.wait()
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["rc_block"] == 0, "stale snapshot entries must not error"
    assert out["rc_unblock"] == 0
    assert out["parked_bc"] == -1, "the live member really was blocked"
    assert out["detached_bc"] == 0, "a detached proc must never be blocked"
    assert stale["dead"].block_count == 0


def test_blockgrp_races_member_exit_and_unshare_live():
    """Members exit and unshare concurrently with repeated block/unblock
    sweeps; every sweep must complete cleanly regardless of timing."""
    from repro.share.prctl import PR_BLOCKGRP, PR_UNBLKGRP

    def short_lived(api, arg):
        yield from api.compute(500)
        return 0

    def self_unsharer(api, arg):
        yield from api.compute(200)
        yield from api.prctl(PR_UNSHARE, PR_SALL)
        yield from api.compute(200)
        return 0

    def main(api, out):
        started = 0
        for entry in (short_lived, short_lived, self_unsharer, self_unsharer):
            pid = yield from api.sproc(entry, PR_SALL)
            if pid != -1:
                started += 1
        rcs = []
        for _ in range(6):
            rc = yield from api.prctl(PR_BLOCKGRP)
            rcs.append(rc)
            rc = yield from api.prctl(PR_UNBLKGRP)
            rcs.append(rc)
            yield from api.yield_cpu()
        for _ in range(started):
            yield from api.wait()
        out["rcs"] = rcs
        return 0

    out, sim = run_program(main, ncpus=2, lockdep=True)
    assert out["rcs"] == [0] * 12
    assert sim.lockdep.violations == []
