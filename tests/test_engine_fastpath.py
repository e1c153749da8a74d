"""The engine fast path: guarded step(), one queue, cycle identity.

The batched drain in :mod:`repro.sim.engine` is a host-speed
optimisation only — ``REPRO_ENGINE_LOOP=naive`` (or ``loop="naive"``)
selects the one-event-at-a-time reference loop, and the two must agree
on every simulated cycle.  These tests pin that contract, plus the
engine-correctness rules that ride along: ``step()`` goes through the
same guarded path as ``run()``, ``run(until=...)`` never turns the
clock back, and a cancel deletes its entry from the one sorted queue.
"""

import hashlib
import json

import pytest

from repro import PR_SALL, System
from repro.errors import SimulationError
from repro.sim.engine import ENGINE_LOOP_MODES, Engine, default_engine_loop
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


@pytest.mark.parametrize("loop", ENGINE_LOOP_MODES)
def test_run_until_in_the_past_is_rejected(loop):
    """``until`` before the clock would turn it back: later entries
    would fire before history already reached.  It is rejected before
    anything fires, as a negative delay is."""
    eng = Engine(loop=loop)
    fired = []
    eng.schedule(100, lambda: fired.append(eng.now))
    eng.schedule(150, lambda: fired.append(eng.now))
    eng.run(until=100)
    assert fired == [100] and eng.now == 100
    with pytest.raises(SimulationError):
        eng.run(until=50)
    assert eng.now == 100 and eng.pending == 1
    eng.run(until=100)  # the current cycle itself is fine
    eng.schedule(10, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [100, 110, 150]


# ----------------------------------------------------------------------
# cancellation deletes the entry: the queue holds live entries only


def test_cancel_storm_keeps_heap_bounded():
    eng = Engine()
    live = [eng.schedule(5000 + i, lambda: None) for i in range(7)]
    for _ in range(50):
        events = [eng.schedule(1000 + i, lambda: None) for i in range(100)]
        for event in events:
            event.cancel()
        # no dead entry waits for a compaction or a drain
        assert len(eng._queue) == eng.pending == len(live)
    live[3].cancel()
    assert len(eng._queue) == 6
    eng.run()
    assert eng.events_processed == 6


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
    assert eng.schedule_call(1, got.append, "tok") is None  # no handle
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
# the one queue: every entry is (time, seq, fn, token), fired in
# (time, seq) order; a token entry allocates no Event


def test_token_entry_fires_as_an_inline_hop():
    eng = Engine(loop="fast")
    got = []
    eng.schedule_call(5, got.append, "hop")
    eng.schedule(7, lambda: got.append("event"))
    assert eng.pending == 2
    assert not eng.idle()
    eng.run()
    assert got == ["hop", "event"]
    assert eng.now == 7
    # only the token entry counts: the other one has an Event handle
    assert eng.inline_hops == 1
    assert eng.events_processed == 2
    assert eng.pending == 0
    assert eng.idle()


def test_inline_chain_advances_clock_without_queue_traffic():
    eng = Engine(loop="fast")
    ticks = []
    depth = []

    def chain():
        # a callback whose tail hops all run ahead: nothing is queued
        while len(ticks) < 5:
            assert eng.hop(3, ticks.append, "queued") is True
            depth.append(len(eng._queue))
            ticks.append(eng.now)

    eng.schedule(0, chain)
    eng.run()
    assert ticks == [3, 6, 9, 12, 15]
    assert depth == [0] * 5
    assert eng.inline_hops == 5
    assert eng.events_processed == 6


def test_parked_hop_waits_for_earlier_queued_event():
    eng = Engine(loop="fast")
    order = []
    eng.schedule(3, lambda: order.append("early-event"))
    eng.schedule_call(5, order.append, "hop")
    eng.schedule(5, lambda: order.append("tie-later"))  # later seq than the hop
    eng.run()
    assert order == ["early-event", "hop", "tie-later"]
    assert eng.inline_hops == 1


def test_park_tie_respects_reserved_seq():
    # one cycle, four entries: seq (schedule order) decides, whichever
    # entry point queued them
    eng = Engine(loop="fast")
    order = []
    eng.schedule_call(5, order.append, "first")
    middle = eng.schedule(5, lambda: order.append("second"))
    eng.schedule_call(5, order.append, "third")
    eng.schedule(5, lambda: order.append("fourth"))
    assert [entry[1] for entry in eng._queue] == [1, 2, 3, 4]
    assert middle.seq == 2
    eng.run()
    assert order == ["first", "second", "third", "fourth"]


def test_until_leaves_parked_hops_parked():
    eng = Engine(loop="fast")
    got = []
    eng.schedule_call(2, got.append, "early")
    eng.schedule_call(10, got.append, "hop")
    eng.schedule(12, lambda: got.append("event"))
    eng.run(until=4)
    assert eng.now == 4
    assert got == ["early"]
    assert eng.pending == 2  # later entries stay queued, in order
    assert [entry[0] for entry in eng._queue] == [10, 12]
    eng.run(until=10)  # boundary is inclusive: the hop is due, fires
    assert got == ["early", "hop"]
    assert eng.now == 10
    assert eng.pending == 1
    eng.run()
    assert got == ["early", "hop", "event"]
    assert eng.idle()


def test_step_fires_parked_hop():
    # exactly one entry per step, even when its peer is due the same cycle
    eng = Engine(loop="fast")
    got = []
    eng.schedule_call(2, got.append, "hop")
    eng.schedule(2, lambda: got.append("event"))
    assert eng.step() is True
    assert got == ["hop"]
    assert eng.pending == 1
    assert eng.step() is True
    assert got == ["hop", "event"]
    assert eng.step() is False
    assert eng.events_processed == 2


def test_schedule_call_rejects_negative_delay():
    eng = Engine(loop="fast")
    with pytest.raises(SimulationError):
        eng.schedule_call(-1, lambda token: None, None)
    assert eng.idle()


# ----------------------------------------------------------------------
# run-ahead (engine.hop): a tail hop strictly earlier than everything
# pending continues in the same pass, counted as if its entry had fired


def _tail_hop_run(use_hop):
    """One event at cycle 10 ends with a 4-cycle tail hop; another
    event waits at cycle 20.  Returns what the hop returned, the clock
    right after it, the seq of an event scheduled next, the firing log
    and the engine."""
    eng = Engine(loop="fast")
    log = []
    seen = {}

    def tail(token):
        log.append((eng.now, token))

    def first():
        log.append((eng.now, "first"))
        if use_hop:
            seen["ran"] = eng.hop(4, tail, "tail")
            if seen["ran"]:
                tail("tail")
        else:
            eng.schedule_call(4, tail, "tail")
        seen["now"] = eng.now

    def later():
        log.append((eng.now, "later"))
        seen["next_seq"] = eng.schedule(1, lambda: None).seq

    eng.schedule(10, first)
    eng.schedule(20, later)
    eng.run()
    return seen, log, eng


def test_strictly_earliest_hop_runs_ahead():
    seen, log, eng = _tail_hop_run(use_hop=True)
    assert seen["ran"] is True
    assert seen["now"] == 14  # the clock moved inside the callback
    queued_seen, queued_log, queued_eng = _tail_hop_run(use_hop=False)
    assert queued_seen["now"] == 10
    # as if the queued entry had fired: same log, clock, counts and seq
    assert log == queued_log == [(10, "first"), (14, "tail"), (20, "later")]
    assert seen["next_seq"] == queued_seen["next_seq"]
    for attr in ("now", "events_processed", "inline_hops"):
        assert getattr(eng, attr) == getattr(queued_eng, attr), attr
    assert eng.events_processed == 4 and eng.inline_hops == 1
    assert eng.idle()


def _hop_from_callback(eng, at, cycles, log, **run_kwargs):
    """Schedule an event at ``at`` whose tail is ``eng.hop(cycles)``;
    run; return what the hop returned."""
    result = []

    def fire(token):
        log.append((eng.now, token))

    def cb():
        ran = eng.hop(cycles, fire, "hop")
        result.append(ran)
        if ran:
            fire("hop")

    eng.schedule(at, cb)
    eng.run(**run_kwargs)
    return result[0]


def test_hop_tied_with_a_queued_entry_parks():
    eng = Engine(loop="fast")
    log = []
    eng.schedule(14, lambda: log.append("queued"))
    assert _hop_from_callback(eng, 10, 4, log) is False
    # the queued entry has the smaller seq, so it fires first
    assert log == ["queued", (14, "hop")]
    assert eng.inline_hops == 1  # the hop's own entry, a token entry


def test_hop_tied_with_a_parked_entry_parks():
    # a hop queued outside run() (it cannot run ahead there) holds the
    # tie against a later hop, which is queued behind it
    eng = Engine(loop="fast")
    log = []
    assert eng.hop(14, log.append, "parked") is False
    assert _hop_from_callback(eng, 10, 4, log) is False
    assert log == ["parked", (14, "hop")]
    assert eng.inline_hops == 2


def test_hop_past_until_parks():
    eng = Engine(loop="fast")
    log = []
    assert _hop_from_callback(eng, 10, 4, log, until=13) is False
    assert eng.now == 13 and log == []
    assert eng.pending == 1  # still owed
    eng.run()
    assert log == [(14, "hop")]
    # exactly at until is within the horizon
    eng = Engine(loop="fast")
    assert _hop_from_callback(eng, 10, 4, [], until=14) is True


@pytest.mark.parametrize("budget", [1, 2, 100])
def test_no_run_ahead_under_max_events(budget):
    eng = Engine(loop="fast")
    assert _hop_from_callback(eng, 10, 4, [], max_events=budget) is False


def test_no_run_ahead_under_step():
    eng = Engine(loop="fast")
    result = []
    eng.schedule(10, lambda: result.append(eng.hop(4, lambda token: None, None)))
    assert eng.step() is True
    assert result == [False]
    assert eng.pending == 1


def test_no_run_ahead_under_the_naive_loop():
    eng = Engine(loop="naive")
    log = []
    assert _hop_from_callback(eng, 10, 4, log) is False
    assert log == [(14, "hop")]
    # the queued hop fires as a token entry: one inline hop, as the
    # fast loop's run-ahead counts it
    assert eng.inline_hops == 1


def test_no_run_ahead_outside_run():
    eng = Engine(loop="fast")
    log = []
    assert eng.hop(4, log.append, "hop") is False
    assert eng.now == 0 and eng.pending == 1
    eng.run()
    assert log == ["hop"] and eng.now == 4


def test_drain_rereads_the_clock_after_a_callback():
    """A callback may move the clock (a run-ahead does); the drain's
    backwards-time check must see where it left it."""
    eng = Engine(loop="fast")

    def corrupt():
        eng.now = 30  # as a run-ahead past the next event would

    eng.schedule(10, corrupt)
    eng.schedule(20, lambda: None)
    with pytest.raises(SimulationError):
        eng.run()


def test_hop_rejects_negative_delay():
    eng = Engine(loop="fast")
    with pytest.raises(SimulationError):
        eng.hop(-1, lambda token: None, None)
    raised = []

    def cb():
        with pytest.raises(SimulationError):
            eng.hop(-1, lambda token: None, None)
        raised.append(eng.now)

    eng.schedule(10, cb)
    eng.run()
    assert raised == [10]


# ----------------------------------------------------------------------
# cycle identity: the fast drain must be bit-identical to the naive
# reference loop, kstats and chrome trace included, under perturbation


def _member(api, arg):
    yield from api.compute(30_000)
    base = yield from api.sbrk(8192)
    yield from api.store_word(base, 7)
    yield from api.load_word(base)
    # armed past the compute it guards, so the cancel below always runs
    yield from api.alarm(50_000)
    yield from api.compute(20_000)
    yield from api.alarm(0)  # cancel: deletes a queued entry on both loops
    yield from api.yield_cpu()  # requeue, then a queued dispatch hop
    yield from api.compute(9_000)
    return 0


def _main(api, statuses):
    for _ in range(4):
        yield from api.sproc(_member, PR_SALL)
    for _ in range(4):
        _pid, status = yield from api.wait()
        statuses.append(status)
    return 0


def _fingerprint(monkeypatch, loop, seed):
    monkeypatch.setenv("REPRO_ENGINE_LOOP", loop)
    sim = System(ncpus=3, perturb_seed=seed)
    assert sim.engine.loop == loop
    tracer = Tracer.attach(sim.kernel, capacity=100_000)
    statuses = []
    sim.spawn(_main, statuses)
    sim.run()
    assert statuses == [0, 0, 0, 0]
    assert sim.stats["signal_deaths"] == 0
    blob = json.dumps(sim.kstat.snapshot(), sort_keys=True) + json.dumps(
        tracer.to_chrome_trace(), sort_keys=True, default=str
    )
    return sim.now, hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_fast_loop_matches_naive_fingerprint(monkeypatch, seed):
    """The fast drain against its oracle: one fingerprint, two loops."""
    assert set(ENGINE_LOOP_MODES) == {"fast", "naive"}
    assert _fingerprint(monkeypatch, "fast", seed) == _fingerprint(
        monkeypatch, "naive", seed
    )
