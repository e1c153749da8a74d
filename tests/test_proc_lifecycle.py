"""Process lifecycle: fork, wait, exit codes, orphans, exec, sbrk."""

import pytest

from repro import (
    PR_GETSTACKSIZE,
    PR_MAXPPROCS,
    PR_MAXPROCS,
    PR_SETSTACKSIZE,
    System,
    status_code,
    status_exited,
)
from repro.errors import ECHILD, EINVAL, ENOENT, ENOEXEC, ESRCH
from tests.conftest import run_program


def test_exit_code_reaches_wait():
    def child(api, arg):
        yield from api.exit(42)

    def main(api, out):
        yield from api.fork(child)
        pid, status = yield from api.wait()
        out["code"] = status_code(status)
        out["exited"] = status_exited(status)
        return 0

    out, _ = run_program(main)
    assert out["code"] == 42
    assert out["exited"]


@pytest.mark.parametrize(
    "result, code", [(17, 17), (None, 0), ("done", 0)], ids=["17", "None", "done"]
)
def test_return_value_becomes_exit_code(result, code):
    def child(api, arg):
        yield from api.compute(10)
        return result

    def main(api, out):
        yield from api.fork(child)
        _, status = yield from api.wait()
        out["exited"] = status_exited(status)
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main)
    assert out["exited"]
    assert out["code"] == code


def test_wait_with_no_children_is_echild():
    def main(api, out):
        rc = yield from api.wait()
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == ECHILD


def test_wait_blocks_until_child_exits():
    def child(api, arg):
        yield from api.compute(50_000)
        return 3

    def main(api, out):
        start = api.now
        yield from api.fork(child)
        _, status = yield from api.wait()
        out["elapsed"] = api.now - start
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["code"] == 3
    assert out["elapsed"] >= 50_000


def test_multiple_children_all_reaped():
    def child(api, n):
        yield from api.compute(n * 100)
        return n

    def main(api, out):
        for n in range(1, 6):
            yield from api.fork(child, n)
        codes = set()
        for _ in range(5):
            _, status = yield from api.wait()
            codes.add(status_code(status))
        out["codes"] = codes
        return 0

    out, _ = run_program(main, ncpus=4)
    assert out["codes"] == {1, 2, 3, 4, 5}


def test_orphans_reparented_to_init():
    """A grandchild orphaned by its parent's exit is inherited by init."""

    def grandchild(api, arg):
        yield from api.compute(100_000)
        return 0

    def child(api, arg):
        yield from api.fork(grandchild)
        return 0  # exits immediately, orphaning the grandchild

    def main(api, out):
        yield from api.fork(child)
        yield from api.wait()  # reap child
        # init is this process (pid 1): the orphan eventually arrives
        _, status = yield from api.wait()
        out["orphan_ok"] = status_exited(status)
        return 0

    out, _ = run_program(main)
    assert out["orphan_ok"]


def test_pids_are_unique_and_increasing():
    def child(api, arg):
        return 0
        yield

    def main(api, out):
        pids = []
        for _ in range(5):
            pid = yield from api.fork(child)
            pids.append(pid)
        for _ in range(5):
            yield from api.wait()
        out["pids"] = pids
        return 0

    out, _ = run_program(main)
    assert out["pids"] == sorted(out["pids"])
    assert len(set(out["pids"])) == 5


def test_getpid_getppid():
    def child(api, out):
        out["child_pid"] = yield from api.getpid()
        out["child_ppid"] = yield from api.getppid()
        return 0

    def main(api, out):
        out["main_pid"] = yield from api.getpid()
        yield from api.fork(child, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["child_ppid"] == out["main_pid"]
    assert out["child_pid"] != out["main_pid"]


def test_exec_missing_program_fails():
    def main(api, out):
        rc = yield from api.exec("/no/such/prog")
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == ENOENT


def test_exec_non_executable_is_enoexec():
    def main(api, out):
        fd = yield from api.creat("/plain")
        yield from api.close(fd)
        rc = yield from api.exec("/plain")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ENOEXEC


def test_exec_passes_argument_and_keeps_fds():
    def image(api, arg):
        # the descriptor opened pre-exec must still be valid
        data = yield from api.read(arg, 5)
        return 7 if data == b"hello" else 1

    def execer(api, arg):
        fd = yield from api.open("/f")
        yield from api.exec("/bin/image", fd)
        return 99

    def main(api, out):
        fd = yield from api.creat("/f")
        yield from api.write(fd, b"hello")
        yield from api.close(fd)
        yield from api.fork(execer)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/image", image)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    assert out["code"] == 7


def test_kill_unknown_pid_is_esrch():
    def main(api, out):
        rc = yield from api.kill(4242, 15)
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ESRCH


def test_prctl_maxpprocs_is_cpu_count():
    def main(api, out):
        out["ncpu"] = yield from api.prctl(PR_MAXPPROCS)
        out["maxprocs"] = yield from api.prctl(PR_MAXPROCS)
        return 0

    out, _ = run_program(main, ncpus=3)
    assert out["ncpu"] == 3
    assert out["maxprocs"] > 0


def test_prctl_stacksize_roundtrip_and_validation():
    def main(api, out):
        out["default"] = yield from api.prctl(PR_GETSTACKSIZE)
        yield from api.prctl(PR_SETSTACKSIZE, 256 * 1024)
        out["set"] = yield from api.prctl(PR_GETSTACKSIZE)
        rc = yield from api.prctl(PR_SETSTACKSIZE, 16)
        out["too_small"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["default"] == 1024 * 1024
    assert out["set"] == 256 * 1024
    assert out["too_small"] == -1
    assert out["errno"] == EINVAL


def test_sbrk_grows_and_gives_usable_memory():
    from repro.mem.frames import PAGE_SIZE

    def main(api, out):
        old = yield from api.sbrk(3 * PAGE_SIZE)
        yield from api.store_word(old, 5150)
        out["value"] = yield from api.load_word(old)
        new = yield from api.sbrk(0)
        out["grew"] = new - old
        return 0

    out, _ = run_program(main)
    assert out["value"] == 5150
    assert out["grew"] == 3 * PAGE_SIZE


def test_sbrk_shrink_releases_frames():
    from repro.mem.frames import PAGE_SIZE

    def main(api, out):
        old = yield from api.sbrk(4 * PAGE_SIZE)
        for page in range(4):
            yield from api.store_word(old + page * PAGE_SIZE, page)
        out["allocated_hi"] = api.kernel.machine.frames.allocated
        yield from api.sbrk(-4 * PAGE_SIZE)
        out["allocated_lo"] = api.kernel.machine.frames.allocated
        return 0

    out, _ = run_program(main)
    assert out["allocated_hi"] - out["allocated_lo"] == 4


def test_mmap_munmap_lifecycle():
    def main(api, out):
        base = yield from api.mmap(8192)
        yield from api.store_word(base + 4096, 9)
        yield from api.munmap(base)
        rc = yield from api.munmap(base)  # already gone
        out["second"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["second"] == -1
    assert out["errno"] == EINVAL


def test_stack_overflow_is_segv():
    """Growing past the prctl stack ceiling must kill the process."""
    from repro import SIGSEGV, status_signal

    def hog(api, arg):
        # touch far below the stack reservation
        from repro.mem import layout

        bad = layout.STACK_TOP - 5 * layout.DEFAULT_STACK_MAX
        yield from api.store_word(bad, 1)
        return 0

    def main(api, out):
        yield from api.fork(hog)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGSEGV


def test_nice_lowers_priority():
    def main(api, out):
        out["pri"] = yield from api.nice(5)
        return 0

    out, _ = run_program(main)
    assert out["pri"] == 25
