"""Property-based system fuzzing: random syscall programs must never
corrupt kernel invariants.

Hypothesis generates short straight-line programs from a safe op
vocabulary; after each run we assert the global health conditions: no
frame leaks beyond the live processes' footprints, no TLB entries into
freed frames, semaphores quiescent, zero live non-zombie processes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import O_CREAT, O_RDWR, PR_SALL, System
from repro.mem.frames import PAGE_SIZE


OPS = st.sampled_from([
    "open", "close0", "dup0", "write", "read", "pipe",
    "mkdir", "chdir_root", "umask", "sbrk", "mmap", "munmap_last",
    "getpid", "fork_noop", "sproc_noop", "thread_noop", "touch",
    "socketpair", "shm",
])


def _noop(api, arg):
    yield from api.compute(50)
    return 0


def _interpreter(api, ops):
    """Run one op list; never raises (bad guest calls just return -1)."""
    opened = []
    mapped = []
    children = 0
    serial = 0
    for op in ops:
        serial += 1
        if op == "open":
            fd = yield from api.open("/fz%d" % serial, O_RDWR | O_CREAT)
            if fd != -1:
                opened.append(fd)
        elif op == "close0" and opened:
            yield from api.close(opened.pop(0))
        elif op == "dup0" and opened:
            fd = yield from api.dup(opened[0])
            if fd != -1:
                opened.append(fd)
        elif op == "write" and opened:
            yield from api.write(opened[-1], b"x" * (serial % 50 + 1))
        elif op == "read" and opened:
            yield from api.lseek(opened[-1], 0, 0)
            yield from api.read(opened[-1], 16)
        elif op == "pipe":
            fds = yield from api.pipe()
            if fds != -1:
                rfd, wfd = fds
                yield from api.write(wfd, b"t")
                yield from api.read(rfd, 1)
                yield from api.close(rfd)
                yield from api.close(wfd)
        elif op == "mkdir":
            yield from api.mkdir("/dir%d" % serial)
        elif op == "chdir_root":
            yield from api.chdir("/")
        elif op == "umask":
            yield from api.umask(serial % 0o100)
        elif op == "sbrk":
            yield from api.sbrk(PAGE_SIZE)
        elif op == "mmap":
            base = yield from api.mmap(2 * PAGE_SIZE)
            if base != -1:
                yield from api.store_word(base, serial)
                mapped.append(base)
        elif op == "munmap_last" and mapped:
            yield from api.munmap(mapped.pop())
        elif op == "getpid":
            yield from api.getpid()
        elif op == "fork_noop":
            if (yield from api.fork(_noop)) != -1:
                children += 1
        elif op == "sproc_noop":
            if (yield from api.sproc(_noop, PR_SALL)) != -1:
                children += 1
        elif op == "thread_noop":
            if (yield from api.thread_create(_noop)) != -1:
                children += 1
        elif op == "touch" and mapped:
            yield from api.store_word(mapped[-1] + PAGE_SIZE, serial)
        elif op == "socketpair":
            fds = yield from api.socketpair()
            if fds != -1:
                yield from api.send(fds[0], b"z")
                yield from api.recv(fds[1], 1)
                yield from api.close(fds[0])
                yield from api.close(fds[1])
        elif op == "shm":
            from repro import IPC_CREAT, IPC_PRIVATE

            shmid = yield from api.shmget(IPC_PRIVATE, PAGE_SIZE, IPC_CREAT)
            if shmid != -1:
                base = yield from api.shmat(shmid)
                if base != -1:
                    yield from api.store_word(base, 1)
                    yield from api.shmdt(base)
                yield from api.shm_rmid(shmid)
    for _ in range(children):
        yield from api.wait()
    return 0


def _check_health(sim):
    # every process ended (init exits last; zombies are fine)
    for proc in sim.kernel.proc_table.all_procs():
        assert proc.state is proc.ZOMBIE, proc
    # no TLB entry points at a freed frame
    for cpu in sim.machine.cpus:
        for entry in cpu.tlb.entries():
            assert entry.frame.refcount > 0, entry
    # allocator counts match the regions still alive (zombies hold none)
    # — all user frames should be gone once init exited
    assert sim.machine.frames.allocated == 0, (
        "leaked %d frames" % sim.machine.frames.allocated
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(OPS, max_size=25), st.integers(1, 4))
def test_random_programs_leave_kernel_healthy(ops, ncpus):
    sim = System(ncpus=ncpus, memory_mb=8)
    sim.spawn(_interpreter, ops)
    sim.run(max_events=3_000_000)
    assert sim.engine.idle(), "runaway program (should be impossible)"
    _check_health(sim)


@settings(max_examples=15, deadline=None)
@given(st.lists(OPS, max_size=15))
def test_random_programs_run_identically_twice(ops):
    """Determinism holds for arbitrary programs, not just curated ones."""

    def run():
        sim = System(ncpus=2, memory_mb=8)
        sim.spawn(_interpreter, list(ops))
        sim.run(max_events=3_000_000)
        return sim.now, dict(sim.stats)

    assert run() == run()
