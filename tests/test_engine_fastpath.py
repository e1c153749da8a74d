"""The engine fast path: guarded step(), event reclamation, cycle identity.

The batched drain in :mod:`repro.sim.engine` is a host-speed
optimisation only — ``REPRO_ENGINE_LOOP=naive`` (or ``loop="naive"``)
selects the one-event-at-a-time reference loop, and the two must agree
on every simulated cycle.  These tests pin that contract, plus the
engine-correctness fixes that rode along: ``step()`` goes through the
same guarded path as ``run()``, and cancelled events are both counted
exactly and physically reclaimed from the heap.
"""

import hashlib
import json

import pytest

from repro import PR_SALL, System
from repro.errors import SimulationError
from repro.sim.engine import (
    _INLINE_PARK_MAX,
    ENGINE_LOOP_MODES,
    Engine,
    default_engine_loop,
)
from repro.sim.trace import Tracer


# ----------------------------------------------------------------------
# step() goes through the guarded run() path: the _running guard and
# the backwards-time check


def test_step_raises_on_reentry():
    eng = Engine()
    seen = []

    def reenter():
        seen.append(eng.now)
        with pytest.raises(SimulationError):
            eng.step()

    eng.schedule(5, reenter)
    eng.run()
    assert seen == [5]


def test_step_raises_on_backwards_time():
    eng = Engine()
    eng.schedule(5, lambda: None)
    eng.now = 10  # simulate clock corruption
    with pytest.raises(SimulationError):
        eng.step()


def test_step_counts_and_reports_progress():
    eng = Engine()
    fired = []
    eng.schedule(1, lambda: fired.append(1))
    eng.schedule(2, lambda: fired.append(2))
    assert eng.step() is True
    assert fired == [1]
    assert eng.events_processed == 1
    assert eng.step() is True
    assert eng.step() is False  # queue empty, no progress
    assert fired == [1, 2]


def test_run_rejects_reentry():
    eng = Engine()

    def reenter():
        eng.run()

    eng.schedule(0, reenter)
    with pytest.raises(SimulationError):
        eng.run()


# ----------------------------------------------------------------------
# cancellation accounting and heap reclamation (satellite: pending was
# an O(n) scan and cancelled entries were never removed from the heap)


def test_cancel_storm_keeps_heap_bounded():
    eng = Engine()
    floor = eng.pending
    for _ in range(50):
        events = [eng.schedule(1000 + i, lambda: None) for i in range(100)]
        for event in events:
            event.cancel()
        assert eng.pending == floor
    # compaction must have reclaimed the 5000 dead entries
    assert len(eng._queue) < 200


def test_pending_is_exact_under_cancellation():
    eng = Engine()
    events = [eng.schedule(10 + i, lambda: None) for i in range(10)]
    assert eng.pending == 10
    events[3].cancel()
    events[7].cancel()
    assert eng.pending == 8
    # double-cancel is idempotent
    events[3].cancel()
    assert eng.pending == 8
    assert not eng.idle()
    eng.run()
    assert eng.pending == 0
    assert eng.idle()
    assert eng.events_processed == 8


def test_cancel_after_fire_is_a_noop():
    eng = Engine()
    event = eng.schedule(1, lambda: None)
    eng.schedule(2, lambda: None)
    eng.run()
    assert eng.pending == 0
    event.cancel()  # already fired: must not corrupt the live count
    assert eng.pending == 0
    eng.schedule(5, lambda: None)
    assert eng.pending == 1


def test_schedule_call_delivers_token():
    eng = Engine()
    got = []
    eng.schedule_call(1, got.append, "tok")
    eng.schedule_call(2, got.append, None)  # None is a real token too
    eng.run()
    assert got == ["tok", None]


def test_cancelled_head_does_not_stall_until():
    eng = Engine()
    eng.schedule(5, lambda: None).cancel()
    eng.run(until=20)
    assert eng.now == 20
    assert eng.events_processed == 0


# ----------------------------------------------------------------------
# ablation plumbing


def test_unknown_loop_mode_rejected():
    with pytest.raises(SimulationError):
        Engine(loop="turbo")
    # Machine validates config with ValueError, matching vm_index
    with pytest.raises(ValueError):
        System(ncpus=1, engine_loop="turbo")


def test_default_loop_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE_LOOP", raising=False)
    assert default_engine_loop() == "fast"
    monkeypatch.setenv("REPRO_ENGINE_LOOP", "naive")
    assert default_engine_loop() == "naive"
    assert Engine().loop == "naive"
    monkeypatch.setenv("REPRO_ENGINE_LOOP", "warp")
    with pytest.raises(SimulationError):
        default_engine_loop()


# ----------------------------------------------------------------------
# the inline-continuation park (engine.resched_inline): trampoline-
# eliding dispatch for the CPU's steady-state hops


def test_resched_inline_fires_like_schedule_call():
    eng = Engine(loop="fast")
    got = []
    eng.resched_inline(5, got.append, "hop")
    assert eng.pending == 1
    assert not eng.idle()
    eng.run()
    assert got == ["hop"]
    assert eng.now == 5
    assert eng.inline_hops == 1
    assert eng.inline_fallbacks == 0
    assert eng.events_processed == 1
    assert eng.pending == 0
    assert eng.idle()


def test_inline_chain_advances_clock_without_queue_traffic():
    eng = Engine(loop="fast")
    ticks = []

    def hop(token):
        ticks.append(eng.now)
        if len(ticks) < 5:
            eng.resched_inline(3, hop, None)

    eng.resched_inline(3, hop, None)
    eng.run()
    assert ticks == [3, 6, 9, 12, 15]
    assert eng.inline_hops == 5
    assert eng.events_processed == 5
    assert len(eng._queue) == 0  # nothing ever touched the heap


def test_parked_hop_waits_for_earlier_queued_event():
    eng = Engine(loop="fast")
    order = []
    eng.schedule_call(3, order.append, "early-event")
    eng.resched_inline(5, order.append, "hop")
    eng.schedule_call(5, order.append, "tie-later")  # later seq than the hop
    eng.run()
    assert order == ["early-event", "hop", "tie-later"]
    assert eng.inline_hops == 1
    assert eng.inline_fallbacks == 0


def test_park_tie_respects_reserved_seq():
    # seq is reserved at park time, so a same-cycle tie resolves exactly
    # as if the continuation had been queued: schedule order.
    eng = Engine(loop="fast")
    order = []
    eng.schedule_call(5, order.append, "queued-first")
    eng.resched_inline(5, order.append, "hop")
    eng.schedule_call(5, order.append, "queued-last")
    eng.run()
    assert order == ["queued-first", "hop", "queued-last"]
    assert eng.inline_hops == 1


def test_until_leaves_parked_hops_parked():
    eng = Engine(loop="fast")
    got = []
    eng.resched_inline(10, got.append, "hop")
    eng.run(until=4)
    assert eng.now == 4
    assert got == []
    assert eng.pending == 1  # still owed; pending counts parked hops
    eng.run(until=10)  # boundary is inclusive: the hop is due, fires
    assert got == ["hop"]
    assert eng.now == 10
    assert eng.idle()


def test_step_fires_parked_hop():
    eng = Engine(loop="fast")
    got = []
    eng.resched_inline(2, got.append, "hop")
    assert eng.step() is True
    assert got == ["hop"]
    assert eng.step() is False


def test_resched_inline_rejects_negative_delay():
    eng = Engine(loop="fast")
    with pytest.raises(SimulationError):
        eng.resched_inline(-1, lambda token: None, None)


def test_naive_loop_materializes_inline_fallbacks():
    eng = Engine(loop="naive")
    got = []
    eng.resched_inline(5, got.append, "hop")
    assert eng.inline_fallbacks == 1
    assert eng.pending == 1
    eng.run()
    assert got == ["hop"]
    assert eng.now == 5
    assert eng.inline_hops == 0  # everything went through the queue


def test_park_bound_demotes_to_real_events():
    eng = Engine(loop="fast")
    got = []
    extra = 5
    for i in range(_INLINE_PARK_MAX + extra):
        eng.resched_inline(1, got.append, i)
    assert eng.inline_fallbacks == extra
    assert eng.pending == _INLINE_PARK_MAX + extra
    eng.run()
    # all at cycle 1: reserved seqs interleave parked and demoted hops
    # in exact submission order
    assert got == list(range(_INLINE_PARK_MAX + extra))
    assert eng.inline_hops == _INLINE_PARK_MAX


# ----------------------------------------------------------------------
# cycle identity: the fast drain must be bit-identical to the naive
# reference loop, kstats and chrome trace included, under perturbation


def _member(api, arg):
    yield from api.compute(30_000)
    base = yield from api.sbrk(8192)
    yield from api.store_word(base, 7)
    yield from api.load_word(base)
    yield from api.alarm(5_000)
    yield from api.compute(20_000)
    yield from api.alarm(0)  # cancel: exercises heap garbage on both loops
    yield from api.sched_yield()
    yield from api.compute(9_000)
    return 0


def _main(api, ctx):
    for _ in range(4):
        yield from api.sproc(_member, PR_SALL)
    for _ in range(4):
        yield from api.wait()
    return 0


def _fingerprint(loop, seed):
    sim = System(ncpus=3, perturb_seed=seed, engine_loop=loop)
    tracer = Tracer.attach(sim.kernel, capacity=100_000)
    sim.spawn(_main, {})
    sim.run()
    blob = json.dumps(sim.kstat.snapshot(), sort_keys=True) + json.dumps(
        tracer.to_chrome_trace(), sort_keys=True, default=str
    )
    return sim.now, hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_fast_loop_matches_naive_fingerprint(seed):
    """The fast drain against its oracle: one fingerprint, two loops."""
    assert set(ENGINE_LOOP_MODES) == {"fast", "naive"}
    assert _fingerprint("fast", seed) == _fingerprint("naive", seed)
