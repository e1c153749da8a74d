"""Smaller units: u-area, machine, System facade, errors, update races."""

import pytest

from repro import O_CREAT, O_RDWR, PR_SALL, System, errno_name
from repro.errors import DeadlockError, EBADF, SysError
from repro.kernel.uarea import UArea
from repro.fs.fsys import FileSystem
from repro.kernel.signals import SIG_DFL, SIG_IGN, SIGUSR1
from tests.conftest import run_program


# ----------------------------------------------------------------------
# u-area


def test_uarea_fork_copy_is_independent():
    fs = FileSystem()
    parent = UArea(fs.root)
    parent.cmask = 0o077
    parent.uid = 5
    parent.set_handler(SIGUSR1, SIG_IGN)
    child = parent.fork_copy()
    child.cmask = 0o022
    child.uid = 9
    child.set_handler(SIGUSR1, SIG_DFL)
    assert parent.cmask == 0o077
    assert parent.uid == 5
    assert parent.handler(SIGUSR1) is SIG_IGN


def test_uarea_set_cdir_balances_refcounts():
    fs = FileSystem()
    sub = fs.mkdir_p("/sub")
    ua = UArea(fs.root)
    root_refs = fs.root.refcount
    ua.set_cdir(sub)
    assert fs.root.refcount == root_refs - 1
    assert sub.refcount == 1
    ua.release()
    assert sub.refcount == 0


def test_uarea_reset_handlers_keeps_ignores():
    fs = FileSystem()
    ua = UArea(fs.root)

    def handler(api, sig):
        return
        yield

    ua.set_handler(1, handler)
    ua.set_handler(2, SIG_IGN)
    ua.reset_handlers()
    assert ua.handler(1) is SIG_DFL
    assert ua.handler(2) is SIG_IGN


# ----------------------------------------------------------------------
# machine / system facade


def test_machine_idle_cpus_and_utilization():
    def main(api, out):
        yield from api.compute(10_000)
        return 0

    out, sim = run_program(main, ncpus=3)
    assert len(sim.machine.idle_cpus()) == 3
    assert 0.0 < sim.machine.utilization() <= 1.0


def test_system_run_until_pauses_cleanly():
    def main(api, out):
        yield from api.compute(1_000_000)
        out["done"] = True
        return 0

    out = {}
    sim = System(ncpus=1)
    sim.spawn(main, out)
    sim.run(until=10_000)
    assert "done" not in out
    assert sim.now == 10_000
    sim.run()
    assert out["done"]


def test_system_reports_blocked_procs():
    def stuck(api, arg):
        rfd, wfd = yield from api.pipe()
        yield from api.read(rfd, 1)  # no writer will ever come
        return 0

    sim = System(ncpus=1)
    sim.spawn(stuck)
    with pytest.raises(DeadlockError):
        sim.run()
    assert len(sim.blocked_procs()) == 1


def test_errno_name_mapping():
    assert errno_name(9) == "EBADF"
    assert "E??" in errno_name(250)
    err = SysError(EBADF)
    assert "EBADF" in str(err)


# ----------------------------------------------------------------------
# concurrent shared-resource updates (the "second updater" race of 6.3)


def test_concurrent_umask_updates_converge():
    """Two members race umask changes; after both finish every member
    agrees with the shaddr copy (no stale overwrite)."""

    def setter(api, value):
        yield from api.umask(value)
        yield from api.compute(5_000)
        return 0

    def main(api, out):
        yield from api.sproc(setter, PR_SALL, 0o011)
        yield from api.sproc(setter, PR_SALL, 0o022)
        yield from api.wait()
        yield from api.wait()
        yield from api.getpid()  # sync self
        mine = api.proc.uarea.cmask
        authoritative = api.proc.shaddr.s_cmask
        out["agree"] = mine == authoritative
        out["value"] = mine
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["agree"]
    assert out["value"] in (0o011, 0o022)


def test_concurrent_open_storms_keep_tables_identical():
    """Heavy descriptor churn from two members: at the end, every
    member's table view matches s_ofile slot for slot."""

    def churner(api, tag):
        for index in range(8):
            fd = yield from api.open("/c%d-%d" % (tag, index), O_RDWR | O_CREAT)
            if index % 3 == 0:
                yield from api.close(fd)
        return 0

    def main(api, out):
        yield from api.sproc(churner, PR_SALL, 1)
        yield from api.sproc(churner, PR_SALL, 2)
        yield from api.wait()
        yield from api.wait()
        yield from api.getpid()  # final sync
        mine = api.proc.uarea.fdtable.snapshot()
        master = api.proc.shaddr.s_ofile
        agree = all(
            mine[fd] is (master[fd] if fd < len(master) else None)
            for fd in range(len(mine))
        )
        out["agree"] = agree
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["agree"]


def test_fupdsema_serializes_descriptor_updates():
    """The single-threading semaphore really is held across updates."""

    def churner(api, tag):
        for index in range(5):
            fd = yield from api.open("/s%d-%d" % (tag, index), O_RDWR | O_CREAT)
        return 0

    def main(api, out):
        yield from api.sproc(churner, PR_SALL, 1)
        yield from api.sproc(churner, PR_SALL, 2)
        yield from api.wait()
        yield from api.wait()
        sema = api.proc.shaddr.s_fupdsema
        out["value"] = sema.value
        out["waiters"] = sema.nwaiters
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["value"] == 1, "semaphore must end released"
    assert out["waiters"] == 0
