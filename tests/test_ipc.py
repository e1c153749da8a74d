"""System V IPC: shared memory and semaphores."""


from repro import IPC_CREAT, IPC_EXCL, IPC_PRIVATE
from repro.errors import EEXIST, EINVAL, ENOENT
from repro.ipc import SEMMSL
from tests.conftest import run_program


# ----------------------------------------------------------------------
# shared memory


def test_shm_is_shared_across_forked_processes():
    def child(api, key):
        shmid = yield from api.shmget(key, 4096, 0)
        base = yield from api.shmat(shmid)
        value = yield from api.load_word(base)
        yield from api.store_word(base + 4, value * 2)
        return 0

    def main(api, out):
        shmid = yield from api.shmget(77, 4096, IPC_CREAT)
        base = yield from api.shmat(shmid)
        yield from api.store_word(base, 21)
        yield from api.fork(child, 77)
        yield from api.wait()
        out["doubled"] = yield from api.load_word(base + 4)
        return 0

    out, _ = run_program(main)
    assert out["doubled"] == 42


def test_shmget_flags():
    def main(api, out):
        a = yield from api.shmget(5, 4096, IPC_CREAT)
        b = yield from api.shmget(5, 4096, IPC_CREAT)
        out["same"] = a == b
        rc = yield from api.shmget(5, 4096, IPC_CREAT | IPC_EXCL)
        out["excl_errno"] = yield from api.errno()
        rc2 = yield from api.shmget(999, 4096, 0)
        out["missing_errno"] = yield from api.errno()
        priv1 = yield from api.shmget(IPC_PRIVATE, 4096, IPC_CREAT)
        priv2 = yield from api.shmget(IPC_PRIVATE, 4096, IPC_CREAT)
        out["private_distinct"] = priv1 != priv2
        return 0

    out, _ = run_program(main)
    assert out["same"]
    assert out["excl_errno"] == EEXIST
    assert out["missing_errno"] == ENOENT
    assert out["private_distinct"]


def test_shmdt_then_access_is_fatal():
    from repro import SIGSEGV, status_signal

    def child(api, key):
        shmid = yield from api.shmget(key, 4096, 0)
        base = yield from api.shmat(shmid)
        yield from api.shmdt(base)
        yield from api.store_word(base, 1)  # SIGSEGV
        return 0

    def main(api, out):
        yield from api.shmget(9, 4096, IPC_CREAT)
        yield from api.fork(child, 9)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGSEGV


def test_shm_frames_freed_after_rmid_and_detach():
    def main(api, out):
        shmid = yield from api.shmget(IPC_PRIVATE, 8192, IPC_CREAT)
        base = yield from api.shmat(shmid)
        yield from api.store_word(base, 1)
        yield from api.store_word(base + 4096, 1)
        before = api.kernel.machine.frames.allocated
        rc = yield from api._call(api.kernel.sys_shmctl_rmid(api.proc, shmid))
        yield from api.shmdt(base)
        after = api.kernel.machine.frames.allocated
        out["delta"] = before - after
        return 0

    out, _ = run_program(main)
    assert out["delta"] == 2


# ----------------------------------------------------------------------
# semaphores


def test_semop_blocks_until_positive():
    def poster(api, semid):
        yield from api.compute(50_000)
        yield from api.semop(semid, [(0, 1)])
        return 0

    def main(api, out):
        semid = yield from api.semget(IPC_PRIVATE, 1, IPC_CREAT)
        yield from api.fork(poster, semid)
        start = api.now
        yield from api.semop(semid, [(0, -1)])
        out["waited"] = api.now - start
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["waited"] >= 40_000


def test_semop_array_is_atomic():
    """[(0,-1),(1,-1)] must not take sem 0 while sem 1 is unavailable."""

    def main(api, out):
        semid = yield from api.semget(IPC_PRIVATE, 2, IPC_CREAT)
        yield from api.semop(semid, [(0, 1)])  # sem0=1, sem1=0

        def taker(api, semid):
            yield from api.semop(semid, [(0, -1), (1, -1)])
            return 0

        pid = yield from api.fork(taker, semid)
        yield from api.compute(30_000)
        # child must still be blocked AND sem0 untouched
        semset = api.kernel.sem.lookup(semid)
        out["sem0_mid"] = semset.values[0]
        yield from api.semop(semid, [(1, 1)])  # now both available
        yield from api.wait()
        out["sem0_end"] = semset.values[0]
        out["sem1_end"] = semset.values[1]
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["sem0_mid"] == 1, "partial application leaked"
    assert out["sem0_end"] == 0
    assert out["sem1_end"] == 0


def test_sem_pingpong():
    def partner(api, semid):
        for _ in range(10):
            yield from api.semop(semid, [(0, -1)])
            yield from api.semop(semid, [(1, 1)])
        return 0

    def main(api, out):
        semid = yield from api.semget(IPC_PRIVATE, 2, IPC_CREAT)
        yield from api.fork(partner, semid)
        for _ in range(10):
            yield from api.semop(semid, [(0, 1)])
            yield from api.semop(semid, [(1, -1)])
        yield from api.wait()
        out["ok"] = True
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["ok"]


def test_semget_bounds_the_set_size():
    """A set larger than SEMMSL fails EINVAL before the kernel builds it;
    SEMMSL itself is a legal size."""

    def main(api, out):
        rc = yield from api.semget(IPC_PRIVATE, SEMMSL + 1, IPC_CREAT)
        out["over"] = (rc, (yield from api.errno()))
        semid = yield from api.semget(IPC_PRIVATE, SEMMSL, IPC_CREAT)
        out["last_op"] = yield from api.semop(semid, [(SEMMSL - 1, 1)])
        return 0

    out, _ = run_program(main)
    assert out["over"] == (-1, EINVAL)
    assert out["last_op"] == 0


def test_semget_of_an_existing_set_checks_nsems():
    """Looking up an existing key fails EINVAL when ``nsems`` asks for
    more semaphores than the set has; 0 and any smaller count find it."""

    def main(api, out):
        semid = yield from api.semget(42, 2, IPC_CREAT)
        rc = yield from api.semget(42, 5, 0)
        out["over"] = (rc, (yield from api.errno()))
        out["found"] = []
        for nsems in (0, 1, 2):
            out["found"].append((yield from api.semget(42, nsems, 0)) == semid)
        return 0

    out, _ = run_program(main)
    assert out["over"] == (-1, EINVAL)
    assert out["found"] == [True, True, True]


def test_semop_bad_index_is_einval():
    def main(api, out):
        semid = yield from api.semget(IPC_PRIVATE, 1, IPC_CREAT)
        rc = yield from api.semop(semid, [(5, 1)])
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EINVAL
