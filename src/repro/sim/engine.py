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

One event queue (see ``docs/INTERNALS.md`` §14):

* Every pending callback is one ``(time, seq, fn, token)`` entry in a
  single list, ``_queue``, kept sorted with :func:`bisect.insort`.
  ``seq`` is unique, so comparisons never reach ``fn``.  The list holds
  a few dozen entries at most (one hop per CPU, plus alarms, disk
  latencies and timers), so an insert and ``del queue[0]`` cost less
  than a heap push and pop.
* :meth:`Engine.schedule_call` inserts an entry that fires
  ``fn(token)`` and allocates nothing else: the CPU's hops reuse one
  prebound callable each.  :meth:`Engine.schedule` is the one
  cancellable entry point; its :class:`Event` handle deletes the entry
  on :meth:`Event.cancel`, so no cancelled entry ever reaches a drain.
* The default drain batches same-cycle events, hoisting the
  ``until``/backwards-time checks behind a single time-changed test.
* :meth:`Engine.hop` is **run-ahead** for an event's tail hop: a hop
  due strictly earlier than everything pending, and within the running
  drain's ``until``, is the very next event the drain would fire, so
  the clock moves there at once and the caller continues in the same
  pass — no queue entry, no drain round trip, the same counts and seqs.
  The CPU uses it for kernel-mode delays, which are never preempted.
  Any other hop is queued.

``loop="naive"`` (env ``REPRO_ENGINE_LOOP``) selects the seed's
one-event-at-a-time loop over the same queue, which never runs ahead.
It is the fast loop's oracle: the two must stay cycle-identical, and
the determinism tests diff them.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left, insort
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: every tie-break site the perturbation RNG may be consulted from
PERTURB_FEATURES = frozenset({"wakeup", "enqueue", "place", "select"})

#: drain-loop strategies: "fast" batches same-cycle events and runs
#: tail hops ahead, "naive" is the original one-event-at-a-time loop
#: kept as the fast loop's bit-identical oracle
ENGINE_LOOP_MODES = ("fast", "naive")

#: the token of an entry that fires ``fn()``; any other token, ``None``
#: included, fires ``fn(token)``
_NO_TOKEN = object()

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
    """A handle on one entry queued by :meth:`Engine.schedule`.

    ``time`` and ``seq`` locate the entry in the sorted queue, so
    :meth:`cancel` finds it by bisection and deletes it.  Once the entry
    has fired (or been cancelled) nothing matches, and a late cancel is
    a no-op.
    """

    __slots__ = ("time", "seq", "engine")

    def __init__(self, time: int, seq: int, engine: "Engine"):
        self.time = time
        self.seq = seq
        self.engine = engine

    def cancel(self) -> None:
        """Delete the entry if it is still queued.  Idempotent."""
        queue = self.engine._queue
        # a 2-tuple sorts just before the 4-tuple it prefixes
        i = bisect_left(queue, (self.time, self.seq))
        if i < len(queue) and queue[i][1] == self.seq:
            del queue[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Event t=%d seq=%d>" % (self.time, self.seq)


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
        #: every pending callback, sorted by (time, seq)
        self._queue: List[Tuple[int, int, Callable[..., None], Any]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running = False
        if loop is None:
            loop = default_engine_loop()
        if loop not in ENGINE_LOOP_MODES:
            raise SimulationError(
                "unknown engine loop %r (choose from %s)"
                % (loop, ", ".join(ENGINE_LOOP_MODES))
            )
        self.loop = loop
        #: events that allocated no Event: run-aheads plus token entries
        self.inline_hops = 0
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

    def schedule_call(self, delay: int, fn: Callable[..., None], token: Any) -> None:
        """Queue ``fn(token)`` to run ``delay`` cycles from now.

        The no-closure entry point: ``fn`` is a prebound callable that
        outlives the entry and ``token`` carries the per-event state (it
        may be ``None``).  Nothing is returned, so the entry cannot be
        cancelled.  ``delay`` may be zero (the entry runs after all
        entries already queued for the current cycle) but never
        negative.
        """
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % delay)
        seq = self._seq + 1
        self._seq = seq
        insort(self._queue, (self.now + int(delay), seq, fn, token))

    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Queue ``fn()`` to run ``delay`` cycles from now; cancellable."""
        self.schedule_call(delay, fn, _NO_TOKEN)
        return Event(self.now + int(delay), self._seq, self)

    def hop(self, cycles: int, fn: Callable[[Any], None], token: Any) -> bool:
        """An event's tail hop: run ahead to it, or queue ``fn(token)``.

        When ``now + cycles`` is **strictly earlier** than every pending
        entry, and within the running drain's ``until``, the hop is the
        very next event the drain would fire and nothing runs in
        between.  So the engine moves the clock there, takes the hop's
        seq and counts an event and an inline hop, exactly as firing the
        entry would have, and returns ``True``: the caller runs the
        continuation itself, in the same pass.  Otherwise the hop is
        queued, as :meth:`schedule_call` would queue it, and this returns
        ``False``.  There is no run-ahead under a ``max_events`` budget
        (so none under :meth:`step`), under the naive loop or outside
        :meth:`run`.
        """
        if cycles < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % cycles)
        t = self.now + cycles
        queue = self._queue
        if t <= self._horizon and (not queue or t < queue[0][0]):
            self.now = t
            self._seq += 1
            self._events_processed += 1
            self.inline_hops += 1
            return True
        seq = self._seq + 1
        self._seq = seq
        insort(queue, (t, seq, fn, token))
        return False

    # ------------------------------------------------------------------
    # execution

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Process events in timestamp order.

        Stops when the queue is empty, when simulated time would pass
        ``until``, or after ``max_events`` events (a runaway guard for
        tests).  An ``until`` before the current cycle is rejected, as
        a negative delay is.  Re-entrant calls are rejected.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(
                "cannot run until cycle %d: the clock is at %d" % (until, self.now)
            )
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

        The ``until`` and backwards-time checks only run when the head's
        due time differs from the current cycle, and hot globals are
        bound to locals.  Event-count accounting is deferred to the
        ``finally`` so the per-event work is: read the head, delete it,
        fire it.  A callback may run ahead (:meth:`hop`), so the clock
        is re-read after every one.
        """
        queue = self._queue
        no_token = _NO_TOKEN
        # budget 0 means unlimited; a non-positive max_events still lets
        # one event through, exactly like the seed's `processed >= max`
        budget = max(1, max_events) if max_events is not None else 0
        processed = 0
        hops = 0
        now = self.now
        try:
            while queue:
                t, _, fn, token = queue[0]
                if t != now:
                    if until is not None and t > until:
                        self.now = until
                        return
                    if t < now:
                        raise SimulationError("event queue time went backwards")
                    now = self.now = t
                del queue[0]
                if token is no_token:
                    fn()
                else:
                    hops += 1
                    fn(token)
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
        queue = self._queue
        processed = 0
        while queue:
            time, _, fn, token = queue[0]
            if until is not None and time > until:
                self.now = until
                return
            del queue[0]
            if time < self.now:
                raise SimulationError("event queue time went backwards")
            self.now = time
            if token is _NO_TOKEN:
                fn()
            else:
                self.inline_hops += 1
                fn(token)
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
        """Number of queued entries (a cancelled one is already gone)."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def idle(self) -> bool:
        return not self._queue
