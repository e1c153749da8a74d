"""Remaining kernel corners: priority preemption, multi-resource sync,
signal ordering, page-crossing guest I/O, dup2 propagation."""


import pytest

from repro import (
    O_CREAT,
    O_RDWR,
    PR_SALL,
    SEEK_SET,
    SIGHUP,
    SIGUSR1,
    SIGUSR2,
    System,
    )
from repro.kernel.flags import ALL_SYNC, SDIRSYNC, SUMASKSYNC
from repro.mem.frames import PAGE_SIZE
from tests.conftest import run_program


def test_priority_wakeup_preempts_running_hog():
    """A better-priority process waking from sleep must preempt a worse
    one mid-quantum (the scheduler's IPI path)."""

    def hog(api, out):
        yield from api.nice(15)  # make ourselves worse
        yield from api.compute(400_000)
        out["hog_done"] = api.now
        return 0

    def sleeper(api, ctx):
        out, rfd = ctx
        yield from api.read(rfd, 1)  # sleep until poked
        out["woke"] = api.now
        yield from api.compute(50_000)
        out["sleeper_done"] = api.now
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        yield from api.fork(sleeper, (out, rfd))
        yield from api.compute(10_000)  # let the sleeper block
        yield from api.fork(hog, out)
        yield from api.compute(20_000)
        yield from api.write(wfd, b"!")  # wake the good-priority sleeper
        yield from api.wait()
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=1)
    assert out["sleeper_done"] < out["hog_done"], (
        "the woken better-priority process must finish first"
    )


def test_multiple_resources_synced_in_one_entry():
    """One member changes fds, dir, umask, ulimit and ids; a sibling's
    single kernel entry brings all five up to date."""

    def changer(api, arg):
        yield from api.mkdir("/elsewhere")
        fd = yield from api.open("/elsewhere/f", O_RDWR | O_CREAT)
        yield from api.chdir("/elsewhere")
        yield from api.umask(0o027)
        yield from api.ulimit(2, 4096)
        yield from api.setgid(12)
        return 0

    def main(api, out):
        yield from api.sproc(changer, PR_SALL)
        yield from api.wait()
        from repro.kernel.flags import ALL_SYNC

        out["bits"] = bin(api.proc.p_flag & ALL_SYNC).count("1")
        yield from api.getpid()  # the one entry
        ua = api.proc.uarea
        out["cmask"] = ua.cmask
        out["ulimit"] = ua.ulimit
        out["gid"] = ua.gid
        st = yield from api.stat("f")  # relative: cdir must be /elsewhere
        out["dir_ok"] = st != -1
        data = yield from api.read(0, 0)  # fd 0 must exist (shared open)
        out["fd_ok"] = data != -1
        return 0

    out, _ = run_program(main)
    assert out["bits"] == 5, "all five sync bits set"
    assert out["cmask"] == 0o027
    assert out["ulimit"] == 4096
    assert out["gid"] == 12
    assert out["dir_ok"]
    assert out["fd_ok"]


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "unbatched"])
def test_a_sync_entry_counts_once_everywhere(batched):
    """An entry that finds two sync bits set is one sync entry, in
    ``kernel.stats`` and in the proc and group kstat scopes alike, under
    E11's unbatched ablation too (section 6.3)."""

    def changer(api, arg):
        yield from api.umask(0o077)
        yield from api.chdir("/dev")
        return 0

    def counts(api):
        kstat = api.kernel.kstat
        proc = api.proc
        return (
            api.kernel.stats["sync_entries"],
            kstat.get("proc", proc.pid, "sync_entries"),
            kstat.get("group", proc.shaddr.sgid, "sync_entries"),
        )

    def main(api, out):
        yield from api.sproc(changer, PR_SALL)
        yield from api.wait()
        out["bits"] = api.proc.p_flag & ALL_SYNC
        before = counts(api)
        yield from api.getpid()  # the one entry
        after = counts(api)
        out["delta"] = tuple(b - a for a, b in zip(before, after))
        return 0

    sim = System(ncpus=1, batched_flag_test=batched)
    out, _ = run_program(main, sim=sim)
    assert out["bits"] == SUMASKSYNC | SDIRSYNC
    assert out["delta"] == (1, 1, 1)


def test_pending_signals_delivered_lowest_first():
    def victim(api, order_base):
        index_cell = order_base + 32

        def make_handler():
            def handler(api, sig):
                index = yield from api.fetch_add(index_cell, 1)
                yield from api.store_word(order_base + 4 * index, sig)

            return handler

        for sig in (SIGHUP, SIGUSR1, SIGUSR2):
            yield from api.signal(sig, make_handler())
        yield from api.store_word(order_base + 60, 1)  # ready
        yield from api.compute(400_000)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(victim, PR_SALL, base)
        while (yield from api.load_word(base + 60)) == 0:
            yield from api.yield_cpu()
        # Freeze the victim so all three signals are pending at once;
        # on resume the batch is delivered in numeric order
        # (SIGHUP=1 < SIGUSR1=16 < SIGUSR2=17), the issig() priority.
        yield from api.blockproc(pid)
        yield from api.compute(5_000)
        yield from api.kill(pid, SIGUSR2)
        yield from api.kill(pid, SIGHUP)
        yield from api.kill(pid, SIGUSR1)
        yield from api.unblockproc(pid)
        yield from api.wait()
        order = []
        for index in range(3):
            value = yield from api.load_word(base + 4 * index)
            order.append(value)
        out["order"] = order
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["order"] == sorted(out["order"]) == [SIGHUP, SIGUSR1, SIGUSR2]


def test_guest_io_buffers_crossing_page_boundaries():
    def main(api, out):
        buf = yield from api.mmap(3 * PAGE_SIZE)
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        payload = bytes(range(256)) * 24  # 6KB: crosses a page
        start = buf + PAGE_SIZE - 100  # straddles two pages
        yield from api.store(start, payload)
        n = yield from api.write_v(fd, start, len(payload))
        yield from api.lseek(fd, 0, SEEK_SET)
        n2 = yield from api.read_v(fd, buf, len(payload))
        readback = yield from api.load(buf, len(payload))
        out["ok"] = (n, n2, readback == payload)
        return 0

    out, _ = run_program(main)
    n, n2, same = out["ok"]
    assert n == n2 == 6144
    assert same


def test_dup2_propagates_through_group():
    def rewirer(api, fd):
        yield from api.dup2(fd, 10)
        return 0

    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"at ten")
        yield from api.sproc(rewirer, PR_SALL, fd)
        yield from api.wait()
        yield from api.getpid()  # sync
        yield from api.lseek(10, 0, SEEK_SET)
        out["data"] = yield from api.read(10, 16)
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"at ten"


def test_thread_killed_by_signal_reports_status():
    from repro import SIGKILL, status_signal

    def spinner(api, arg):
        yield from api.compute(10_000_000)
        return 0

    def main(api, out):
        tid = yield from api.thread_create(spinner)
        yield from api.compute(50_000)
        yield from api.kill(tid, SIGKILL)
        _, status = yield from api.thread_join()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    from repro import SIGKILL

    assert out["sig"] == SIGKILL
