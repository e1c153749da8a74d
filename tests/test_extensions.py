"""Section 8 (future directions) extensions, implemented and tested:
selective region sharing, exec-keeping-the-group, group priority,
gang scheduling hint, stop-sharing, plus the /dev devices and alarm().
"""

import pytest

from repro import (
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    PR_GETNSHARE,
    PR_SALL,
    PR_SETGANG,
    SEEK_SET,
    System,
    status_code,
)
from repro.errors import EINVAL, EPERM
from repro.share.mask import PR_PRIVDATA
from repro.share.prctl import PR_SETGROUPPRI
from tests.conftest import run_program


# ----------------------------------------------------------------------
# selective region sharing (PR_PRIVDATA)


def _data_addr(api):
    """An address inside the (shared) data segment."""
    from repro.mem.region import RegionType

    pregion, _shared = api.proc.vm.find_by_type(RegionType.DATA)
    return pregion.vbase


def test_privdata_child_sees_snapshot_but_not_later_writes():
    def child(api, ctx):
        addr, out = ctx
        out["child_saw"] = yield from api.load_word(addr)
        yield from api.store_word(addr, 777)  # private COW write
        yield from api.compute(50_000)
        out["child_after"] = yield from api.load_word(addr)
        return 0

    def main(api, out):
        addr = _data_addr(api)
        yield from api.store_word(addr, 111)
        yield from api.sproc(child, PR_SALL | PR_PRIVDATA, (addr, out))
        yield from api.compute(10_000)
        yield from api.store_word(addr, 222)  # group-side write
        yield from api.wait()
        out["group_view"] = yield from api.load_word(addr)
        return 0

    out, _ = run_program(main)
    assert out["child_saw"] == 111, "child gets a snapshot of the data"
    assert out["child_after"] == 777, "child's writes stay private"
    assert out["group_view"] == 222, "group's writes never reach the child"


def test_privdata_child_still_shares_mmap_regions():
    """Only DATA is privatized; the rest of the image stays shared."""

    def child(api, base):
        yield from api.store_word(base, 0xFEED)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.sproc(child, PR_SALL | PR_PRIVDATA, base)
        yield from api.wait()
        out["value"] = yield from api.load_word(base)
        return 0

    out, _ = run_program(main)
    assert out["value"] == 0xFEED


def test_privdata_triggers_shootdown():
    def child(api, arg):
        yield from api.compute(10)
        return 0

    def main(api, out):
        addr = _data_addr(api)
        yield from api.store_word(addr, 5)  # make a data page resident
        yield from api.sproc(child, PR_SALL | PR_PRIVDATA)
        yield from api.wait()
        return 0

    out, sim = run_program(main)
    assert sim.stats["shootdowns"] >= 1


@pytest.mark.parametrize("vm_index", ["indexed", "linear"])
def test_privdata_member_fork_child_copies_the_members_data(vm_index):
    """fork() copies what its caller sees: the member's private DATA,
    not the group's segment that the private copy shadows."""

    def forked(api, ctx):
        from repro.mem.region import RegionType

        addr, out = ctx
        out["fork_child_saw"] = yield from api.load_word(addr)
        out["fork_child_data_pregions"] = sum(
            1 for pregion in api.proc.vm.private
            if pregion.rtype is RegionType.DATA
        )
        return 0

    def member(api, ctx):
        addr, out = ctx
        yield from api.store_word(addr, 777)  # private COW write
        yield from api.fork(forked, ctx)
        yield from api.wait()
        return 0

    def main(api, out):
        addr = _data_addr(api)
        yield from api.store_word(addr, 111)
        yield from api.sproc(member, PR_SALL | PR_PRIVDATA, (addr, out))
        yield from api.wait()
        return 0

    out, _ = run_program(main, vm_index=vm_index)
    assert out["fork_child_saw"] == 777
    assert out["fork_child_data_pregions"] == 1, "the shadowed copy stays out"


def test_privdata_leader_keeps_its_view_on_one_cpu():
    """On one CPU the member's private DATA translation, cached under
    the group's ASID, must not serve the leader — neither while the
    member lives nor after its frame is freed."""

    def member(api, ctx):
        addr, ctl = ctx
        yield from api.store_word(addr, 777)  # private COW write
        yield from api.store_word(ctl, 1)
        while (yield from api.load_word(ctl + 4)) == 0:
            yield from api.yield_cpu()
        return 0

    def main(api, out):
        addr = _data_addr(api)
        ctl = yield from api.mmap(4096)
        yield from api.store_word(addr, 111)
        yield from api.sproc(member, PR_SALL | PR_PRIVDATA, (addr, ctl))
        while (yield from api.load_word(ctl)) == 0:
            yield from api.yield_cpu()
        out["while_member_lives"] = yield from api.load_word(addr)
        yield from api.store_word(ctl + 4, 1)
        yield from api.wait()
        out["after_member_exits"] = yield from api.load_word(addr)
        return 0

    out, _ = run_program(main, ncpus=1)
    assert out["while_member_lives"] == 111
    assert out["after_member_exits"] == 111


def test_privdata_not_implied_by_pr_sall():
    """PR_SALL means 'share everything', not 'privatize data'."""

    def child(api, ctx):
        addr, out = ctx
        yield from api.store_word(addr, 999)
        return 0

    def main(api, out):
        addr = _data_addr(api)
        yield from api.store_word(addr, 1)
        yield from api.sproc(child, PR_SALL, (addr, out))
        yield from api.wait()
        out["shared_write"] = yield from api.load_word(addr)
        return 0

    out, _ = run_program(main)
    assert out["shared_write"] == 999


# ----------------------------------------------------------------------
# exec keeping the group (file sharing across unrelated images)


def test_exec_keep_group_retains_fd_sharing():
    def newimage(api, arg):
        n = yield from api.prctl(PR_GETNSHARE)
        # the descriptor the sibling opens after our exec must appear
        yield from api.compute(60_000)
        yield from api.getpid()  # sync entry
        data = yield from api.read(0, 64)
        yield from api.compute(5_000)
        return n if data == b"post-exec data" else 99

    def execer(api, arg):
        yield from api.exec("/bin/newimage", keep_group=True)
        return 98

    def main(api, out):
        yield from api.sproc(execer, PR_SALL)
        yield from api.compute(30_000)
        fd = yield from api.open("/shared-after", O_RDWR | O_CREAT)
        yield from api.write(fd, b"post-exec data")
        yield from api.lseek(fd, 0, SEEK_SET)
        pid, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/newimage", newimage)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    assert out["code"] == 2, "exec'd image stayed in the 2-member group"


def test_exec_keep_group_gets_fresh_address_space():
    def newimage(api, base):
        # base was a valid shared mapping pre-exec; the new image has a
        # unique address space, so this must fault fatally
        yield from api.store_word(base, 1)
        return 0

    def execer(api, base):
        yield from api.exec("/bin/newimage", base, keep_group=True)
        return 97

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 42)
        yield from api.sproc(execer, PR_SALL, base)
        pid, status = yield from api.wait()
        from repro import status_signal

        out["sig"] = status_signal(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/newimage", newimage)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    from repro import SIGSEGV

    assert out["sig"] == SIGSEGV


# ----------------------------------------------------------------------
# group priority


def test_group_priority_applies_to_all_members():
    def member(api, arg):
        yield from api.compute(100_000)
        return 0

    def main(api, out):
        pids = []
        for _ in range(2):
            pid = yield from api.sproc(member, PR_SALL)
            pids.append(pid)
        yield from api.prctl(PR_SETGROUPPRI, 30)
        out["pris"] = [api.kernel.proc_table.get(pid).pri for pid in pids]
        out["mine"] = api.proc.pri
        for _ in pids:
            yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["pris"] == [30, 30]
    assert out["mine"] == 30


def test_group_priority_raise_requires_root():
    def main(api, out):
        yield from api.sproc(lambda api, a: _ret0(api), PR_SALL)
        yield from api.setuid(50)
        rc = yield from api.prctl(PR_SETGROUPPRI, 5)  # raise: needs root
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        yield from api.wait()
        return 0

    def _ret0(api):
        return 0
        yield

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == EPERM


def test_group_priority_outside_group_is_einval():
    def main(api, out):
        rc = yield from api.prctl(PR_SETGROUPPRI, 25)
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EINVAL


# ----------------------------------------------------------------------
# devices


def test_dev_null_reads_eof_and_swallows_writes():
    def main(api, out):
        fd = yield from api.open("/dev/null", O_RDWR)
        out["read"] = yield from api.read(fd, 100)
        out["written"] = yield from api.write(fd, b"x" * 1000)
        return 0

    out, _ = run_program(main)
    assert out["read"] == b""
    assert out["written"] == 1000


def test_dev_zero_supplies_zeroes():
    def main(api, out):
        fd = yield from api.open("/dev/zero", O_RDONLY)
        out["data"] = yield from api.read(fd, 16)
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"\x00" * 16


# ----------------------------------------------------------------------
# alarm


def test_alarm_delivers_sigalrm():
    from repro.kernel.signals import SIGALRM

    def main(api, out):
        base = yield from api.mmap(4096)

        def handler(api, sig):
            yield from api.store_word(base, sig)

        yield from api.signal(SIGALRM, handler)
        start = api.now
        yield from api.alarm(40_000)
        rc = yield from api.pause()
        out["elapsed"] = api.now - start
        out["sig"] = yield from api.load_word(base)
        return 0

    out, _ = run_program(main)
    from repro.kernel.signals import SIGALRM

    assert out["sig"] == SIGALRM
    assert out["elapsed"] >= 40_000


def test_alarm_zero_cancels_and_reports_remaining():
    def main(api, out):
        yield from api.alarm(100_000)
        yield from api.compute(10_000)
        remaining = yield from api.alarm(0)
        out["remaining"] = remaining
        yield from api.compute(200_000)  # alarm must NOT fire
        return 0

    out, _ = run_program(main)
    assert 0 < out["remaining"] <= 90_500
    # surviving the compute proves the cancel worked (default SIGALRM kills)


def test_alarm_rearm_replaces_previous():
    def main(api, out):
        yield from api.alarm(500_000)
        old = yield from api.alarm(10_000)
        out["old"] = old
        from repro import SIG_IGN
        from repro.kernel.signals import SIGALRM

        yield from api.signal(SIGALRM, SIG_IGN)
        yield from api.compute(20_000)
        return 0

    out, _ = run_program(main)
    assert out["old"] > 400_000


def test_alarm_after_a_fired_alarm_reports_nothing_remaining():
    """A fired alarm leaves nothing to report or cancel: the next alarm
    call returns 0, and the alarm it arms still fires."""
    from repro.kernel.signals import SIGALRM

    def main(api, out):
        fired = []

        def handler(api, sig):
            fired.append(api.now)
            yield from api.getpid()

        yield from api.signal(SIGALRM, handler)
        yield from api.alarm(10_000)
        yield from api.compute(20_000)
        out["fired_first"] = len(fired)
        out["remaining"] = yield from api.alarm(5_000)
        yield from api.compute(20_000)
        out["fired"] = len(fired)
        return 0

    out, _ = run_program(main)
    assert out["fired_first"] == 1
    assert out["remaining"] == 0
    assert out["fired"] == 2


# ----------------------------------------------------------------------
# gang guardrails


def test_gang_group_larger_than_machine_still_runs():
    """The gang need is capped at the CPU count: no head-of-line deadlock."""

    def member(api, arg):
        yield from api.compute(20_000)
        return 0

    def main(api, out):
        for _ in range(5):  # group of 6 on 2 CPUs
            yield from api.sproc(member, PR_SALL)
        yield from api.prctl(PR_SETGANG, 1)
        for _ in range(5):
            yield from api.wait()
        out["done"] = True
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["done"]
