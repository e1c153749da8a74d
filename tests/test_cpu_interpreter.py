"""The CPU interpreter: quantum slicing, frame stack, exec replacement."""

import pytest

from repro import SIGUSR1, System, status_code
from repro.sim.costs import CostModel
from tests.conftest import run_program


def test_long_compute_is_chunked_at_quantum():
    """A single giant compute must not monopolize the CPU past quanta."""
    quantum = 50_000

    def hog(api, log):
        yield from api.compute(10 * quantum)
        log.append(("hog", api.now))
        return 0

    def quick(api, log):
        yield from api.compute(1000)
        log.append(("quick", api.now))
        return 0

    def main(api, log):
        yield from api.fork(hog, log)
        yield from api.fork(quick, log)
        yield from api.wait()
        yield from api.wait()
        return 0

    log = []
    sim = System(ncpus=1, costs=CostModel(quantum=quantum))
    sim.spawn(main, log)
    sim.run()
    order = [tag for tag, _ in log]
    assert order[0] == "quick", "time slicing must let the short job through"


def test_compute_zero_is_harmless():
    def main(api, out):
        yield from api.compute(0)
        out["ok"] = True
        return 0

    out, _ = run_program(main)
    assert out["ok"]


def test_async_signal_pushes_handler_frame_and_resumes_compute():
    """Handler interrupts mid-compute; the interrupted work continues
    afterwards and total compute time is preserved."""

    def victim(api, ctx):
        base = ctx

        def handler(api, sig):
            yield from api.store_word(base, 1)

        yield from api.signal(SIGUSR1, handler)
        start = api.now
        yield from api.compute(400_000)
        elapsed = api.now - start
        handled = yield from api.load_word(base)
        # the handler ran (flag set) and the compute still finished fully
        return 0 if (handled == 1 and elapsed >= 400_000) else 1

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.fork(victim, base)
        yield from api.compute(100_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["code"] == 0


def test_nested_signal_during_handler_defers_sanely():
    """A second signal posted while a handler runs is delivered after."""

    def victim(api, ctx):
        base = ctx

        def h1(api, sig):
            yield from api.fetch_add(base, 1)
            yield from api.compute(50_000)

        yield from api.signal(SIGUSR1, h1)
        yield from api.compute(600_000)
        count = yield from api.load_word(base)
        return count

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.fork(victim, base)
        yield from api.compute(100_000)
        yield from api.kill(pid, SIGUSR1)
        yield from api.compute(300_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["handled"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["handled"] == 2


def test_exec_discards_old_generator_stack():
    """exec from inside a signal handler still replaces the whole image."""

    def image(api, arg):
        return 55
        yield

    def victim(api, arg):
        def handler(api, sig):
            yield from api.exec("/bin/image")

        yield from api.signal(SIGUSR1, handler)
        yield from api.compute(1_000_000)
        return 1  # must never be reached

    def main(api, out):
        pid = yield from api.fork(victim)
        yield from api.compute(50_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out = {}
    sim = System(ncpus=2)
    sim.register_program("/bin/image", image)
    sim.spawn(lambda api, a: main(api, out))
    sim.run()
    assert out["code"] == 55


def test_program_falling_off_end_exits_zero():
    def silent(api, arg):
        yield from api.compute(10)
        # no return statement: implicit exit(0)

    def main(api, out):
        yield from api.fork(silent)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main)
    assert out["code"] == 0


def test_busy_cycles_accounting_consistent():
    def main(api, out):
        yield from api.compute(100_000)
        return 0

    out, sim = run_program(main, ncpus=1)
    total_busy = sum(cpu.busy_cycles for cpu in sim.machine.cpus)
    assert total_busy <= sim.now
    assert total_busy >= 100_000


def test_dispatch_cost_charged_on_switch():
    slow_switch = CostModel(context_switch=50_000)

    def child(api, arg):
        yield from api.compute(1000)
        return 0

    def main(api, out):
        yield from api.fork(child)
        yield from api.wait()
        return 0

    out_fast, sim_fast = run_program(main, ncpus=1)
    out_slow, sim_slow = run_program(main, ncpus=1, costs=slow_switch)
    assert sim_slow.now > sim_fast.now + 40_000


def test_guest_exception_is_wrapped_with_context():
    """A buggy workload raising a raw exception gets pid/cycle context."""
    from repro.errors import SimulationError

    def buggy(api, arg):
        yield from api.compute(100)
        raise ValueError("oops in guest code")

    sim = System(ncpus=1)
    sim.spawn(buggy, name="buggy-prog")
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "buggy-prog" in message
    assert "oops in guest code" in message
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_delay_caches_share_one_bound():
    """Both interning caches stop growing at the shared _DELAY_CACHE_MAX."""
    from repro.sim import effects

    saved_k = dict(effects._KDELAY_CACHE)
    saved_u = dict(effects._UDELAY_CACHE)
    try:
        effects._KDELAY_CACHE.clear()
        effects._UDELAY_CACHE.clear()
        bound = effects._DELAY_CACHE_MAX
        for make, cache, user in (
            (effects.kdelay, effects._KDELAY_CACHE, False),
            (effects.udelay, effects._UDELAY_CACHE, True),
        ):
            for cycles in range(bound + 50):
                delay = make(cycles)
                assert delay.cycles == cycles
                assert delay.user is user
            assert len(cache) == bound
            # cached values intern; overflow values still work, uncached
            assert make(1) is make(1)
            overflow = bound + 10
            assert make(overflow) is not make(overflow)
            assert make(overflow).cycles == overflow
    finally:
        effects._KDELAY_CACHE.clear()
        effects._KDELAY_CACHE.update(saved_k)
        effects._UDELAY_CACHE.clear()
        effects._UDELAY_CACHE.update(saved_u)


def _syscall_loop(api, out):
    for _ in range(50):
        yield from api.getpid()
        yield from api.getuid()
        yield from api.umask(0o22)
    return 0


def test_syscall_loop_runs_its_kernel_delays_ahead(monkeypatch):
    """Alone on one CPU, every kernel delay is strictly the next event:
    under the fast loop none is queued, and the run still ends on the
    naive loop's cycle with the naive loop's kstat snapshot."""
    from repro.sim import engine

    def run(loop):
        queued = []  # the callable of every entry that enters the queue
        insort = engine.insort

        def counting(queue, entry):
            queued.append(getattr(entry[2], "__name__", None))
            insort(queue, entry)

        with monkeypatch.context() as patch:
            patch.setenv("REPRO_ENGINE_LOOP", loop)
            patch.setattr(engine, "insort", counting)
            sim = System(ncpus=1)
            sim.spawn(_syscall_loop, {})
            sim.run()
        return queued, sim.now, sim.engine.events_processed, sim.kstat.snapshot()

    fast, naive = run("fast"), run("naive")
    assert fast[3]["kernel"][0]["syscalls"] == 150
    # only the dispatch hop is queued; each syscall is one _resume call
    assert fast[0] == ["_boundary"]
    # the oracle queues every kernel delay, one event each
    assert naive[0].count("_resume") == naive[2] - 1
    assert fast[1:] == naive[1:]
