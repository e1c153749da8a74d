"""Section 8 (future directions) extensions, implemented and tested:
exec-keeping-the-group, group priority, gang scheduling hint,
stop-sharing, plus the /dev devices and alarm().
"""

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
from repro.share.prctl import PR_SETGROUPPRI
from tests.conftest import run_program


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
