"""Kernel error paths under injected faults: partial-failure unwinds,
EINTR consistency for every blocking call, and SIGKILL vs wait-counts."""

import pytest

from repro import IPC_CREAT, IPC_PRIVATE, PR_SALL, SIGKILL, SIGUSR1, System
from repro.check.invariants import audit_leaks, check_leaks, run_invariants
from repro.errors import EINTR, ENOMEM
from repro.fs.file import O_CREAT, O_RDWR, SEEK_SET
from repro.fs.pipe import PIPE_BUF
from repro.mem.frames import PAGE_SIZE
from tests.conftest import run_program


def _noop_handler(api, sig):
    return
    yield  # pragma: no cover - marks this as a generator


# ----------------------------------------------------------------------
# satellite: multi-page kernel copy fails midway -> frames released

def test_read_v_enomem_midway_releases_grabbed_frames():
    holder = {}

    def main(api, out):
        fd = yield from api.open("/data", O_RDWR | O_CREAT)
        yield from api.write(fd, b"x" * (2 * PAGE_SIZE))
        yield from api.lseek(fd, 0, SEEK_SET)
        buf = yield from api.mmap(4 * PAGE_SIZE)
        yield from api.errno()  # materialize the PRDA page up front
        before = holder["sim"].machine.frames.allocated
        rc = yield from api.read_v(fd, buf, 2 * PAGE_SIZE)
        out["rc"], out["err"] = rc, (yield from api.errno())
        out["frames_delta"] = holder["sim"].machine.frames.allocated - before
        # the buffer is still usable afterwards
        yield from api.lseek(fd, 0, SEEK_SET)
        rc = yield from api.read_v(fd, buf, 2 * PAGE_SIZE)
        out["rc2"] = rc
        yield from api.close(fd)
        return 0

    out = {}
    sim = System(ncpus=1, inject={"fault.zero": "nth:2"})
    holder["sim"] = sim
    run_program(main, out=out, sim=sim)
    assert out["rc"] == -1 and out["err"] == ENOMEM
    assert out["frames_delta"] == 0, "page 1's frame must be rolled back"
    assert out["rc2"] == 2 * PAGE_SIZE
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# satellite: blocking syscalls return EINTR consistently, and the
# banked waiter counts go back down

def test_pipe_read_eintr_then_retry():
    holder = {}

    def victim(api, arg):
        out, rfd = arg
        yield from api.signal(SIGUSR1, _noop_handler)
        rc = yield from api.read(rfd, 8)
        out["first_err"] = (yield from api.errno()) if rc == -1 else None
        while rc == -1:
            rc = yield from api.read(rfd, 8)
        out["data_len"] = len(rc)
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        me = yield from api.getpid()
        proc = holder["sim"].proc(me)
        out["fifo"] = proc.uarea.fdtable.slots[rfd].inode.fifo
        pid = yield from api.sproc(victim, PR_SALL, (out, rfd))
        yield from api.compute(30_000)
        yield from api.kill(pid, SIGUSR1)
        yield from api.compute(30_000)
        yield from api.write(wfd, b"12345678")
        yield from api.wait()
        return 0

    out = {}
    sim = System(ncpus=2)
    holder["sim"] = sim
    run_program(main, out=out, sim=sim)
    assert out["first_err"] == EINTR
    assert out["data_len"] == 8
    assert out["fifo"].readable.waiters == 0
    assert out["fifo"].writable.waiters == 0
    assert audit_leaks(sim) == []


@pytest.mark.parametrize("cause", ["signal", "failpoint"])
def test_interrupted_pipe_write_returns_its_partial_count(cause):
    """A blocked write cut short after moving bytes returns the count it
    moved (POSIX); only a write that moved nothing fails EINTR."""

    def writer(api, arg):
        out, wfd = arg
        yield from api.signal(SIGUSR1, _noop_handler)
        out["rc"] = yield from api.write(wfd, b"w" * (PIPE_BUF + 808))
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        out["fifo"] = api.proc.uarea.fdtable.slots[rfd].inode.fifo
        pid = yield from api.fork(writer, (out, wfd))
        yield from api.compute(30_000)
        if cause == "signal":
            yield from api.kill(pid, SIGUSR1)
        yield from api.wait()
        out["got"] = len((yield from api.read(rfd, 2 * PIPE_BUF)))
        return 0

    inject = {"pipe.write.sleep": "nth:1"} if cause == "failpoint" else None
    out, sim = run_program(main, inject=inject)
    assert out["rc"] == PIPE_BUF
    assert out["got"] == PIPE_BUF
    assert out["fifo"].writable.waiters == 0
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# a wakeup paid to a sleeper that a signal already took off the
# semaphore goes back with it: the waker runs before the interrupted
# sleeper does, so the claim is no longer banked but paid


def _block_in(kind, api, handle):
    if kind == "pipe":
        return (yield from api.read(handle, 8))
    if kind == "socket":
        return (yield from api.recv(handle, 8))
    if kind == "semop":
        return (yield from api.semop(handle, [(0, -1)]))
    return (yield from api.uwait(handle, 0))


def _pay(kind, api, handle):
    if kind == "pipe":
        yield from api.write(handle, b"12345678")
    elif kind == "socket":
        yield from api.send(handle, b"12345678")
    elif kind == "semop":
        yield from api.semop(handle, [(0, 1)])
    else:
        yield from api.store_word(handle, 1)
        yield from api.uwake(handle, 1)


@pytest.mark.parametrize("kind", ["pipe", "socket", "semop", "uwait"])
def test_interrupted_sleeper_reclaims_a_wakeup_paid_after_the_signal(kind):
    def victim(api, arg):
        out, handle = arg
        rc = yield from _block_in(kind, api, handle)
        out["first_err"] = (yield from api.errno()) if rc == -1 else None
        while rc == -1:
            rc = yield from _block_in(kind, api, handle)
        return 0

    def main(api, out):
        yield from api.signal(SIGUSR1, _noop_handler)  # the victim inherits it
        if kind == "pipe":
            wait_on, pay_to = yield from api.pipe()
        elif kind == "socket":
            pay_to, wait_on = yield from api.socketpair()
        elif kind == "semop":
            wait_on = pay_to = yield from api.semget(IPC_PRIVATE, 1, IPC_CREAT)
        else:
            wait_on = pay_to = yield from api.mmap(PAGE_SIZE)
        pid = yield from api.sproc(victim, PR_SALL, (out, wait_on))
        yield from api.yield_cpu()  # the victim runs until it sleeps
        yield from api.kill(pid, SIGUSR1)
        yield from _pay(kind, api, pay_to)  # before the victim runs again
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=1)
    assert out["first_err"] == EINTR
    unclaimed = [
        (queue.sema.name, queue.sema.value)
        for queue in sim.machine.waitqueues
        if queue.sema.value
    ]
    assert unclaimed == []
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# the leak audit walks every wait queue


@pytest.mark.parametrize("leave", ["banked", "unclaimed"])
def test_leak_audit_reports_a_wait_queue_left_behind(leave):
    def main(api, out):
        rfd, wfd = yield from api.pipe()
        out["fifo"] = api.proc.uarea.fdtable.slots[rfd].inode.fifo
        yield from api.write(wfd, b"x")
        out["data"] = yield from api.read(rfd, 8)
        return 0

    out, sim = run_program(main)
    assert check_leaks(sim) == []
    queue = out["fifo"].readable
    if leave == "banked":
        queue.waiters += 1
    else:
        queue.sema.v()
    findings = check_leaks(sim)
    assert len(findings) == 1
    assert findings[0].startswith("wait queue pipe.read: ")
    assert ("1 banked claims" if leave == "banked" else "1 unclaimed") in findings[0]


def test_semop_eintr_decrements_waiters():
    def victim(api, semid):
        yield from api.signal(SIGUSR1, _noop_handler)
        rc = yield from api.semop(semid, [(0, -1)])
        first = (yield from api.errno()) if rc == -1 else None
        while rc == -1:
            rc = yield from api.semop(semid, [(0, -1)])
        return 0 if first == EINTR else 1

    def main(api, out):
        semid = yield from api.semget(77, 1, IPC_CREAT)
        out["semid"] = semid
        pid = yield from api.sproc(victim, PR_SALL, semid)
        yield from api.compute(30_000)
        yield from api.kill(pid, SIGUSR1)
        yield from api.compute(30_000)
        yield from api.semop(semid, [(0, 1)])  # let the retry through
        _, status = yield from api.wait()
        out["status"] = status
        return 0

    out, sim = run_program(main)
    assert out["status"] == 0  # victim saw EINTR, then succeeded
    semset = sim.kernel.sem._by_id[out["semid"]]
    assert semset.change.waiters == 0
    assert semset.change.sema.nwaiters == 0
    assert audit_leaks(sim) == []


def test_wait_sleep_injection_returns_eintr():
    def child(api, arg):
        yield from api.compute(5_000)
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SALL)
        rc = yield from api.wait()
        out["rc"], out["err"] = rc, (yield from api.errno())
        while rc == -1:
            rc = yield from api.wait()
        return 0

    out, sim = run_program(main, inject={"wait.sleep": "nth:1"})
    assert out["rc"] == -1 and out["err"] == EINTR
    assert audit_leaks(sim) == []


# ----------------------------------------------------------------------
# satellite: SIGKILL on a blocked process must not corrupt wait-counts

def test_sigkill_while_blocked_in_semop_leaves_counts_clean():
    def victim(api, semid):
        yield from api.semop(semid, [(0, -1)])  # blocks forever
        return 0

    def survivor(api, semid):
        yield from api.compute(80_000)
        yield from api.semop(semid, [(0, 1)])
        rc = yield from api.semop(semid, [(0, -1)])
        return 0 if rc == 0 else 1

    def main(api, out):
        semid = yield from api.semget(9, 1, IPC_CREAT)
        out["semid"] = semid
        doomed = yield from api.sproc(victim, PR_SALL, semid)
        yield from api.sproc(survivor, PR_SALL, semid)
        yield from api.compute(30_000)
        yield from api.kill(doomed, SIGKILL)
        statuses = []
        for _ in range(2):
            _, status = yield from api.wait()
            statuses.append(status)
        out["statuses"] = statuses
        return 0

    out, sim = run_program(main)
    semset = sim.kernel.sem._by_id[out["semid"]]
    assert semset.change.waiters == 0, "the killed sleeper's banked waiter leaked"
    assert semset.change.sema.nwaiters == 0
    assert 0 in out["statuses"], "the surviving member must still succeed"
    assert audit_leaks(sim) == []


def test_sigkill_during_vm_lock_traffic_leaves_lock_clean():
    # Kill one member at a fixed cycle while the group hammers the
    # shared read/update lock; the lock's counts must drain to zero.
    def member(api, arg):
        for _ in range(6):
            base = yield from api.mmap(PAGE_SIZE)
            if base == -1:
                continue
            yield from api.store_word(base, 1)
            yield from api.munmap(base)
        return 0

    def main(api, out):
        holder = out["holder"]
        pids = []
        for _ in range(3):
            pid = yield from api.sproc(member, PR_SALL)
            pids.append(pid)
        me = yield from api.getpid()
        proc = holder["sim"].proc(me)
        out["vm_lock"] = proc.shaddr.vm_lock
        kernel = holder["sim"].kernel
        target = holder["sim"].proc(pids[0])
        holder["sim"].engine.schedule(
            9_000, lambda: kernel.psignal(target, SIGKILL)
        )
        for _ in range(3):
            yield from api.wait()
        return 0

    holder = {}
    sim = System(ncpus=4)
    holder["sim"] = sim
    out = {"holder": holder}
    run_program(main, out=out, sim=sim)
    lock = out["vm_lock"]
    assert lock._acccnt == 0 and lock._waitcnt == 0
    assert run_invariants(sim) == []
    assert audit_leaks(sim) == []
