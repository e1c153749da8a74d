"""Deterministic discrete-event simulation engine.

Every piece of simulated work — a user program computing, a kernel path
charging its cost, a CPU spinning on a lock — is expressed as an event on
a single global timeline measured in **cycles**.  The engine is the only
source of time in the system; nothing reads the host clock.

Determinism is load-bearing for the whole reproduction: events that fire
at the same cycle are ordered by a monotonically increasing sequence
number, so a given workload always interleaves the same way and every
test and benchmark is exactly reproducible.

Seeded *perturbation* preserves that property while exploring other
legal histories: an engine built with ``seed=N`` carries a private
``random.Random(N)`` that the scheduler and wakeup paths consult to
break ties they would otherwise break by FIFO/index order.  The same
seed always yields the same interleaving, so every schedule the
explorer (:mod:`repro.check.explore`) visits is exactly reproducible
from its seed.  ``perturb`` names which tie-break sites may consult the
RNG (used by the explorer's shrinker); with no seed, ``rng`` is ``None``
and every call site takes its deterministic default path.

Host-speed notes (see ``docs/INTERNALS.md`` §14 and §17):

* The binary heap stores ``(time, seq, event)`` triples so sift
  comparisons are C-level int compares (``seq`` is unique, so the
  Event itself is never compared); cancelled entries are reclaimed by
  threshold-triggered compaction and counted so ``pending`` is O(1);
  the default drain loop batches same-cycle events, hoisting the
  ``until``/backwards-time checks behind a single time-changed test.
* :meth:`Engine.resched_inline` is the **inline-continuation park**:
  the CPU's steady-state hops (kernel-``Delay`` resumes, user-delay
  chunk boundaries and the dispatch hop after ``CPU.assign``) park a
  ``(time, seq, fn, token)`` quadruple in a tiny sorted list on the
  engine — one outstanding hop per CPU — instead of materializing a
  heap event.  Whenever the earliest parked continuation is due
  *strictly earlier* than every queued event (ties broken by the
  ``seq`` reserved at park time) the drain loop advances the clock and
  fires it directly — zero Event allocation, zero queue traffic; when a
  queued event is due first the parked hops wait their turn.
  Continuations only demote to real queued events under the naive
  ablation loop or past the park-list bound, so the protocol is
  observably transparent: exact ``(time, seq)`` order either way.
* :meth:`Engine.hop` is **run-ahead** for an event's tail hop: a hop
  due strictly earlier than everything pending, and within the running
  drain's ``until``, is the very next event the drain would fire, so
  the clock moves there at once and the caller continues in the same
  pass — no park, no drain round trip, the same counts and seqs.  The
  CPU uses it for kernel-mode delays, which are never preempted.
  Anything else parks as before.

``loop="naive"`` (env ``REPRO_ENGINE_LOOP``) falls back to the seed's
one-event-at-a-time loop with the inline slot disabled (continuations
materialize immediately, and nothing runs ahead).  It is the fast
loop's oracle: the two must stay cycle-identical, and the determinism
tests diff them.
"""

from __future__ import annotations

import heapq
import os
import random
from bisect import insort
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: every tie-break site the perturbation RNG may be consulted from
PERTURB_FEATURES = frozenset({"wakeup", "enqueue", "place", "select"})

#: drain-loop strategies: "fast" batches same-cycle events and honors
#: the inline-continuation slot, "naive" is the original one-event-at-a-
#: time loop kept as the fast loop's bit-identical oracle
ENGINE_LOOP_MODES = ("fast", "naive")

#: distinguishes "no resume token" from a token that is legitimately None
_NO_TOKEN = object()

#: threshold for compacting cancelled entries out of the queue: at least
#: this many dead entries *and* at least half the heap
_COMPACT_MIN_GARBAGE = 64

#: park-list safety bound: the CPUs park at most one continuation each,
#: so crossing this means host code is abusing resched_inline as a
#: general scheduler — demote to real events rather than grow unbounded
_INLINE_PARK_MAX = 1024

#: run-ahead horizons (see Engine.hop): none outside an unbudgeted fast
#: drain, and "no ``until``" inside one
_NO_HORIZON = -1
_FAR = 1 << 62


def default_engine_loop() -> str:
    """The drain loop used when none is requested (env-overridable)."""
    mode = os.environ.get("REPRO_ENGINE_LOOP", "fast")
    if mode not in ENGINE_LOOP_MODES:
        raise SimulationError(
            "unknown REPRO_ENGINE_LOOP %r (choose from %s)"
            % (mode, ", ".join(ENGINE_LOOP_MODES))
        )
    return mode


class Event:
    """A scheduled callback.  Cancel by calling :meth:`cancel`.

    ``token`` is the resume-token protocol: when set, the engine fires
    ``fn(token)`` instead of ``fn()``, so steady-state interpreter hops
    can reuse one prebound callable instead of allocating a closure per
    event.  A fired event is marked ``cancelled`` so a late
    :meth:`cancel` (e.g. clearing an alarm that already fired) stays a
    no-op and the engine's live-event counter moves exactly once per
    event.
    """

    __slots__ = ("time", "seq", "fn", "token", "cancelled", "engine")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., None],
        token: Any = _NO_TOKEN,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.token = token
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self.engine
        if engine is not None:
            engine._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return "<Event t=%d seq=%d%s>" % (self.time, self.seq, state)


class Engine:
    """The global event loop and cycle clock.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(10, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [10]
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        perturb: Optional[Iterable[str]] = None,
        loop: Optional[str] = None,
    ) -> None:
        self.now: int = 0
        #: min-heap of (time, seq, event) — int-tuple ordering keeps the
        #: sift comparisons out of Python code, seq uniqueness guarantees
        #: the Event itself is never compared
        self._queue: List[Tuple[int, int, Event]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._live: int = 0  #: scheduled, not cancelled, not fired
        self._garbage: int = 0  #: cancelled entries still queued
        self._running = False
        if loop is None:
            loop = default_engine_loop()
        if loop not in ENGINE_LOOP_MODES:
            raise SimulationError(
                "unknown engine loop %r (choose from %s)"
                % (loop, ", ".join(ENGINE_LOOP_MODES))
            )
        self.loop = loop
        # Inline-continuation park (see resched_inline): a small sorted
        # list of (time, seq, fn, token) — one outstanding hop per CPU.
        # Only the fast loop uses it; under the naive ablation
        # continuations materialize immediately as real events.
        self._inline_enabled = loop == "fast"
        self._parked: List[Tuple[int, int, Callable[[Any], None], Any]] = []
        self.inline_hops = 0  #: continuations fired without queue traffic
        self.inline_fallbacks = 0  #: continuations demoted to real events
        #: the latest cycle a tail hop may run ahead to (see hop)
        self._horizon = _NO_HORIZON
        self.seed = seed
        self.rng = random.Random(seed) if seed is not None else None
        self.perturb = (
            frozenset(perturb) if perturb is not None else PERTURB_FEATURES
        )
        unknown = self.perturb - PERTURB_FEATURES
        if unknown:
            raise SimulationError(
                "unknown perturbation feature(s): %s" % ", ".join(sorted(unknown))
            )

    def perturbs(self, feature: str) -> bool:
        """May the ``feature`` tie-break site consult the RNG?"""
        return self.rng is not None and feature in self.perturb

    # ------------------------------------------------------------------
    # scheduling

    def _schedule_event(
        self, delay: int, fn: Callable[..., None], token: Any = _NO_TOKEN
    ) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now.

        The one scheduling preamble every entry point shares: the
        negative-delay check, the seq bump, the queue push and the
        live-event count.  With a ``token`` the engine fires
        ``fn(token)`` — the no-closure resume-token protocol: ``fn`` is
        a prebound callable that outlives the event and ``token``
        carries the per-event state (it may be ``None``).  ``delay``
        may be zero (the event runs after all events already scheduled
        for the current cycle) but never negative.
        """
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % delay)
        seq = self._seq + 1
        self._seq = seq
        time = self.now + int(delay)
        event = Event(time, seq, fn, token, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    #: the hot no-closure entry point is the shared preamble itself —
    #: an alias, not a wrapper, so the steady state stays one call deep
    schedule_call = _schedule_event

    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn()`` to run ``delay`` cycles from now."""
        return self._schedule_event(delay, fn, _NO_TOKEN)

    def call_soon(self, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` for the current cycle."""
        return self._schedule_event(0, fn, _NO_TOKEN)

    def resched_inline(
        self, cycles: int, fn: Callable[[Any], None], token: Any
    ) -> None:
        """Park ``fn(token)`` as an inline continuation.

        The trampoline-eliding dispatch protocol for steady-state
        interpreter hops: instead of materializing an Event and paying
        the queue round-trip, the continuation waits in a small sorted
        park list carrying the ``(time, seq)`` pair it *would* have
        sorted under — ``seq`` is reserved here, so every event
        scheduled later sorts after it exactly as if it were queued.
        The fast drain loop fires the earliest parked continuation
        directly — advancing the clock, allocating nothing — whenever
        its due time is **strictly earlier** than the queue minimum (a
        strictly earlier time precedes any queued ``(time, seq)`` pair
        regardless of seq); on a tie the reserved seqs decide, again
        exactly heap order.  When a queued event is due first the
        parked hops simply wait while the queue drains to them.
        Either way the observable schedule is identical to
        :meth:`schedule_call` — the determinism suite diffs the two.

        Inline continuations cannot be cancelled (no Event exists to
        cancel), so this returns ``None``; use :meth:`schedule_call`
        for anything that needs a handle.  Under the naive ablation
        loop (and past the park-list safety bound) the continuation
        materializes immediately as a real event, counted as an
        ``inline_fallback``.  :meth:`hop` parks here when it cannot
        run ahead.
        """
        if cycles < 0:
            raise SimulationError(
                "cannot schedule into the past (delay=%d)" % cycles
            )
        parked = self._parked
        if not self._inline_enabled or len(parked) >= _INLINE_PARK_MAX:
            self._schedule_event(cycles, fn, token)
            self.inline_fallbacks += 1
            return
        seq = self._seq + 1
        self._seq = seq
        # seq is globally unique, so sorting (and the drain's head
        # comparisons) never reach the non-comparable fn/token fields
        insort(parked, (self.now + int(cycles), seq, fn, token))

    def hop(self, cycles: int, fn: Callable[[Any], None], token: Any) -> bool:
        """An event's tail hop: run ahead to it, or park ``fn(token)``.

        When ``now + cycles`` is **strictly earlier** than every pending
        entry, queued or parked, and within the running drain's
        ``until``, the hop is the very next event the drain would fire
        and nothing runs in between.  So the engine moves the clock
        there, reserves the hop's seq and counts an event and an inline
        hop, exactly as firing the park would have, and returns
        ``True``: the caller runs the continuation itself, in the same
        pass.  Otherwise the hop parks through :meth:`resched_inline`
        and this returns ``False``.  There is no run-ahead under a
        ``max_events`` budget (so none under :meth:`step`), under the
        naive loop or outside :meth:`run`.
        """
        t = self.now + cycles
        if t <= self._horizon and cycles >= 0:
            parked = self._parked
            queue = self._queue
            if (not parked or t < parked[0][0]) and (not queue or t < queue[0][0]):
                self.now = t
                self._seq += 1
                self._events_processed += 1
                self.inline_hops += 1
                return True
        self.resched_inline(cycles, fn, token)
        return False

    # ------------------------------------------------------------------
    # queue hygiene

    def _note_cancel(self) -> None:
        """A live queued entry was cancelled; compact if mostly garbage."""
        self._live -= 1
        garbage = self._garbage + 1
        self._garbage = garbage
        if garbage >= _COMPACT_MIN_GARBAGE and 2 * garbage >= len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries, preserving identity.

        In place (slice assignment), so a drain loop holding a local
        alias to the queue keeps seeing the compacted heap.  The heap
        is only a partial order, but pops follow the (time, seq) total
        order regardless, so compaction can never reorder the stream.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._garbage = 0

    # ------------------------------------------------------------------
    # execution

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Process events in timestamp order.

        Stops when the queue is empty, when simulated time would pass
        ``until``, or after ``max_events`` events (a runaway guard for
        tests).  Re-entrant calls are rejected.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        try:
            if self.loop == "fast":
                if max_events is None:
                    # a tail hop may run ahead up to here (see hop)
                    self._horizon = until if until is not None else _FAR
                self._drain_fast(until, max_events)
            else:
                self._drain_naive(until, max_events)
        finally:
            self._running = False
            self._horizon = _NO_HORIZON

    def _drain_fast(self, until: Optional[int], max_events: Optional[int]) -> None:
        """Batched drain: same-cycle events skip the time bookkeeping.

        The ``until`` and backwards-time checks only run when the due
        timestamp differs from the current cycle, and hot globals are
        bound to locals.  Event-count accounting is deferred to the
        ``finally`` so the per-event work is: pop, flag, fire — or, for
        an inline continuation at the (time, seq) minimum, just:
        advance, fire.  A callback may run ahead (:meth:`hop`), so the
        clock is re-read after every one.
        """
        queue = self._queue
        parked = self._parked
        pop = heapq.heappop
        no_token = _NO_TOKEN
        # budget 0 means unlimited; a non-positive max_events still lets
        # one event through, exactly like the seed's `processed >= max`
        budget = max(1, max_events) if max_events is not None else 0
        processed = 0
        hops = 0
        now = self.now
        try:
            while True:
                # true queue head (cancelled entries reclaimed on sight)
                while queue:
                    entry = queue[0]
                    if entry[2].cancelled:
                        pop(queue)
                        self._garbage -= 1
                    else:
                        break
                else:
                    entry = None
                # parked[0] < entry compares (time, seq) and stops there
                # — seq uniqueness keeps fn/Event out of the comparison
                if parked and (entry is None or parked[0] < entry):
                    # ------- inline burst: the earliest parked
                    # continuation is the exact (time, seq) minimum —
                    # fire it directly, and keep firing while that
                    # holds.
                    while True:
                        item = parked[0]
                        t = item[0]
                        if t != now:
                            if until is not None and t > until:
                                self.now = until
                                return
                            if t < now:
                                raise SimulationError(
                                    "event queue time went backwards"
                                )
                            now = self.now = t
                        del parked[0]
                        hops += 1
                        item[2](item[3])
                        now = self.now
                        processed += 1
                        if processed == budget:
                            return
                        if not parked:
                            break
                        # the next parked hop fires iff it still
                        # beats the head (the fired hop may have
                        # queued new events)
                        while queue:
                            entry = queue[0]
                            if entry[2].cancelled:
                                pop(queue)
                                self._garbage -= 1
                            else:
                                break
                        else:
                            continue
                        if entry < parked[0]:
                            break
                    continue
                # ------- queue path: one real event per iteration
                # (not-yet-due parked hops just wait their turn)
                if entry is None:
                    break
                event = entry[2]
                t = entry[0]
                if t != now:
                    if until is not None and t > until:
                        self.now = until
                        return
                    if t < now:
                        raise SimulationError("event queue time went backwards")
                    now = self.now = t
                pop(queue)
                event.cancelled = True
                self._live -= 1
                token = event.token
                if token is no_token:
                    event.fn()
                else:
                    event.fn(token)
                now = self.now
                processed += 1
                if processed == budget:
                    return
            if until is not None and until > now:
                self.now = until
        finally:
            self._events_processed += processed
            self.inline_hops += hops

    def _drain_naive(self, until: Optional[int], max_events: Optional[int]) -> None:
        """The seed's one-event-at-a-time loop, kept as the fast loop's oracle."""
        processed = 0
        while self._queue:
            time, _, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                self._garbage -= 1
                continue
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            if time < self.now:
                raise SimulationError("event queue time went backwards")
            self.now = time
            event.cancelled = True
            self._live -= 1
            token = event.token
            if token is _NO_TOKEN:
                event.fn()
            else:
                event.fn(token)
            processed += 1
            self._events_processed += 1
            if max_events is not None and processed >= max_events:
                return
        if until is not None:
            self.now = max(self.now, until)

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` if the queue is empty.

        Runs through the same guarded path as :meth:`run`, so it honors
        the re-entrancy guard and the backwards-time check that the full
        loop enforces.
        """
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    # ------------------------------------------------------------------
    # introspection

    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (parked included)."""
        return self._live + len(self._parked)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def idle(self) -> bool:
        return self._live == 0 and not self._parked
