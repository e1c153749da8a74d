"""Signals: handlers, defaults, EINTR, uncatchable SIGKILL."""


from repro import (
    SIG_DFL,
    SIG_IGN,
    SIGCHLD,
    SIGINT,
    SIGKILL,
    SIGPIPE,
    SIGTERM,
    SIGUSR1,
    SIGUSR2,
    status_code,
    status_exited,
    status_signal,
)
from repro.errors import EINTR, EINVAL, EPERM
from tests.conftest import run_program


def test_default_action_terminates():
    def victim(api, arg):
        yield from api.pause()
        return 0

    def main(api, out):
        pid = yield from api.fork(victim)
        yield from api.compute(20_000)
        yield from api.kill(pid, SIGTERM)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        out["exited"] = status_exited(status)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGTERM
    assert not out["exited"]


def test_handler_runs_and_pause_returns_eintr():
    def handler(api, sig):
        yield from api.store_word(0x3000_0000, sig)  # unreachable w/o map
        return

    def victim(api, base):
        hits = []

        def note(api, sig):
            yield from api.store_word(base, sig)

        yield from api.signal(SIGUSR1, note)
        rc = yield from api.pause()
        err = yield from api.errno()
        got = yield from api.load_word(base)
        return 0 if (rc == -1 and err == EINTR and got == SIGUSR1) else 1

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.fork(victim, base)
        yield from api.compute(20_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main)
    assert out["code"] == 0


def test_ignored_signal_is_dropped():
    def victim(api, arg):
        yield from api.signal(SIGUSR2, SIG_IGN)
        yield from api.compute(60_000)
        return 9

    def main(api, out):
        pid = yield from api.fork(victim)
        yield from api.compute(10_000)
        yield from api.kill(pid, SIGUSR2)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        out["exited"] = status_exited(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["exited"]
    assert out["code"] == 9


def test_sigkill_cannot_be_caught_or_ignored():
    def victim(api, arg):
        rc = yield from api.signal(SIGKILL, SIG_IGN)
        err = yield from api.errno()
        assert rc == -1 and err == EINVAL
        yield from api.pause()
        return 0

    def main(api, out):
        pid = yield from api.fork(victim)
        yield from api.compute(20_000)
        yield from api.kill(pid, SIGKILL)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGKILL


def test_signal_interrupts_cpu_bound_loop():
    """Async delivery: a compute-bound victim dies within a quantum."""

    def victim(api, arg):
        yield from api.compute(100_000_000)  # would run "forever"
        return 0

    def main(api, out):
        pid = yield from api.fork(victim)
        yield from api.compute(30_000)
        yield from api.kill(pid, SIGKILL)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        out["when"] = api.now
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["sig"] == SIGKILL
    # far less than the 100M-cycle compute
    assert out["when"] < 5_000_000


def test_sigchld_handler_fires_on_child_exit():
    def child(api, arg):
        yield from api.compute(1000)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)

        def on_chld(api, sig):
            yield from api.store_word(base, sig)

        yield from api.signal(SIGCHLD, on_chld)
        yield from api.fork(child)
        yield from api.wait()
        out["sig"] = yield from api.load_word(base)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGCHLD


def test_kill_permission_denied_across_uids():
    def victim(api, arg):
        yield from api.compute(200_000)
        return 0

    def unprivileged(api, victim_pid):
        yield from api.setuid(100)
        rc = yield from api.kill(victim_pid, SIGTERM)
        err = yield from api.errno()
        return 0 if (rc == -1 and err == EPERM) else 1

    def main(api, out):
        vpid = yield from api.fork(victim)
        yield from api.fork(unprivileged, vpid)
        codes = []
        for _ in range(2):
            _, status = yield from api.wait()
            codes.append(status_code(status))
        out["codes"] = codes
        return 0

    out, _ = run_program(main, ncpus=2)
    assert 0 in out["codes"]


def test_kill_zero_probes_existence():
    def child(api, arg):
        yield from api.compute(50_000)
        return 0

    def main(api, out):
        pid = yield from api.fork(child)
        rc = yield from api.kill(pid, 0)
        out["probe"] = rc
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["probe"] == 0


def test_signal_returns_previous_disposition():
    def main(api, out):
        def handler(api, sig):
            return
            yield

        old1 = yield from api.signal(SIGINT, handler)
        old2 = yield from api.signal(SIGINT, SIG_DFL)
        out["old1"] = old1
        out["old2_is_handler"] = old2 is handler
        return 0

    out, _ = run_program(main)
    assert out["old1"] == SIG_DFL
    assert out["old2_is_handler"]


def test_sigpipe_on_write_to_closed_pipe():
    def main(api, out):
        rfd, wfd = yield from api.pipe()
        yield from api.close(rfd)
        yield from api.signal(SIGPIPE, SIG_IGN)
        rc = yield from api.write(wfd, b"data")
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    from repro.errors import EPIPE

    assert out["rc"] == -1
    assert out["errno"] == EPIPE


def test_sigpipe_default_kills_writer():
    def writer(api, wfd):
        yield from api.write(wfd, b"data")
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        yield from api.close(rfd)
        yield from api.fork(writer, wfd)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGPIPE


def test_signal_interrupts_blocking_read():
    def reader(api, rfd):
        def handler(api, sig):
            return
            yield

        yield from api.signal(SIGUSR1, handler)
        rc = yield from api.read(rfd, 10)  # blocks: no writer data
        err = yield from api.errno()
        return 0 if (rc == -1 and err == EINTR) else 1

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        pid = yield from api.fork(reader, rfd)
        yield from api.compute(30_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["code"] == 0


def test_handler_not_interrupted_by_second_catchable_signal():
    """Classic return-to-user rule: a signal posted while a handler runs
    stays pending until the handler finishes."""

    def victim(api, base):
        def h1(api, sig):
            yield from api.store_word(base, 1)  # entered
            yield from api.compute(120_000)  # long handler
            yield from api.store_word(base + 4, 1)  # finished

        def h2(api, sig):
            first_done = yield from api.load_word(base + 4)
            yield from api.store_word(base + 8, 10 + first_done)

        yield from api.signal(SIGUSR1, h1)
        yield from api.signal(SIGUSR2, h2)
        yield from api.store_word(base + 12, 1)  # both handlers armed
        yield from api.compute(500_000)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(victim, 0xFFFF, base)
        while (yield from api.load_word(base + 12)) == 0:
            yield from api.yield_cpu()
        while (yield from api.load_word(base)) == 0:
            yield from api.kill(pid, SIGUSR1)
            yield from api.compute(20_000)
        yield from api.kill(pid, SIGUSR2)  # posted mid-handler
        yield from api.wait()
        out["h2_saw"] = yield from api.load_word(base + 8)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["h2_saw"] == 11, "h2 must run only after h1 completed"


def test_sigkill_interrupts_a_running_handler():
    def victim(api, base):
        def slow_handler(api, sig):
            yield from api.store_word(base, 1)
            yield from api.compute(10_000_000)  # effectively forever

        yield from api.signal(SIGUSR1, slow_handler)
        yield from api.compute(10_000_000)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(victim, 0xFFFF, base)
        yield from api.compute(20_000)
        yield from api.kill(pid, SIGUSR1)
        while (yield from api.load_word(base)) == 0:
            yield from api.yield_cpu()
        yield from api.kill(pid, SIGKILL)  # must not wait for the handler
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        out["when"] = api.now
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["sig"] == SIGKILL
    assert out["when"] < 3_000_000, "SIGKILL must cut the handler short"


def test_syscall_exit_inside_a_handler_holds_a_new_signal():
    """The return-to-user rule holds at a handler's own syscall exit too:
    a signal posted while the handler runs waits until it returns."""
    log = []

    def victim(api, base):
        def h1(api, sig):
            log.append(("h1-start", api.proc.delivering))
            yield from api.store_word(base + 4, 1)  # entered
            yield from api.compute(100_000)  # SIGUSR2 is posted meanwhile
            yield from api.getpid()  # its exit finds SIGUSR2 pending
            log.append(("h1-end", api.proc.delivering))

        def h2(api, sig):
            log.append(("h2-start", api.proc.delivering))
            yield from api.getpid()
            log.append(("h2-end", api.proc.delivering))

        yield from api.signal(SIGUSR1, h1)
        yield from api.signal(SIGUSR2, h2)
        yield from api.store_word(base, 1)  # both handlers armed
        yield from api.compute(1_000_000)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(victim, 0xFFFF, base)
        while (yield from api.load_word(base)) == 0:
            yield from api.yield_cpu()
        yield from api.kill(pid, SIGUSR1)
        while (yield from api.load_word(base + 4)) == 0:
            yield from api.compute(1_000)
        yield from api.kill(pid, SIGUSR2)  # posted mid-handler
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert [event for event, _ in log] == ["h1-start", "h1-end", "h2-start", "h2-end"]
    assert max(depth for _, depth in log) == 1
    assert out["code"] == 0


def test_sigkill_to_a_handler_in_a_syscall_kills_at_its_exit():
    after = []

    def victim(api, base):
        def handler(api, sig):
            yield from api.store_word(base, 1)
            yield from api.pause()  # SIGKILL interrupts the sleep
            after.append(api.now)  # never reached

        yield from api.signal(SIGUSR1, handler)
        yield from api.compute(10_000_000)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(victim, 0xFFFF, base)
        yield from api.compute(20_000)
        yield from api.kill(pid, SIGUSR1)
        while (yield from api.load_word(base)) == 0:
            yield from api.yield_cpu()
        yield from api.compute(5_000)  # let the handler sleep in pause
        yield from api.kill(pid, SIGKILL)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["sig"] == SIGKILL
    assert after == []


def test_a_handler_return_value_never_becomes_the_exit_code():
    def victim(api, base):
        def handler(api, sig):
            yield from api.store_word(base, 1)
            return 99

        yield from api.signal(SIGUSR1, handler)
        while (yield from api.load_word(base)) == 0:
            yield from api.compute(1_000)
        return None

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(victim, 0xFFFF, base)
        yield from api.compute(5_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["exited"] = status_exited(status)
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["exited"]
    assert out["code"] == 0
