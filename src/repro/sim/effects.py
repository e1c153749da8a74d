"""Primitive effects yielded by simulated code.

Simulated programs — both user programs and kernel code paths — are
Python generators.  They interact with the machine by yielding *effects*,
which the CPU interpreter (:mod:`repro.sim.cpu`) executes:

``Delay``
    Consume cycles on the current CPU.  User-mode delays are preemptible
    (they are chunked at quantum boundaries and signal delivery happens
    between chunks); kernel-mode delays are not, matching the System V.3
    rule that kernel code is never preempted on its own CPU.

``Block``
    Give up the CPU without becoming runnable.  The yielding code must
    already have registered the process on some wait queue (a semaphore,
    a sleep channel, a zombie list); somebody else's ``wakeup`` makes it
    runnable again.

``Yield``
    Voluntarily return to the run queue (used by ``sched_yield``-style
    paths and the preemption machinery).

Because the discrete-event engine runs exactly one effect at a time,
state mutations performed *between* yields are atomic — this is how the
simulation models atomic instructions and interlocked bus operations.
"""

from __future__ import annotations


class Effect:
    __slots__ = ()


class Delay(Effect):
    """Consume ``cycles`` on the current CPU."""

    __slots__ = ("cycles", "user")

    def __init__(self, cycles: int, user: bool = False):
        self.cycles = int(cycles)
        self.user = user

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Delay %d %s>" % (self.cycles, "user" if self.user else "kernel")


class Block(Effect):
    """Deschedule until an external ``wakeup``.  ``reason`` aids debugging."""

    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Block %s>" % (self.reason or "?")


class Yield(Effect):
    """Voluntarily relinquish the CPU but stay runnable."""

    __slots__ = ()


class ExecImage(Exception):
    """Control transfer raised by ``exec``: replace the process's program.

    The CPU interpreter catches this, discards the process's entire
    generator stack (the old program image), and installs ``frame``, the
    new program's generator, as the new bottom frame.
    """

    def __init__(self, frame):
        self.frame = frame
        super().__init__("exec image replacement")


#: interned delays — the cost model yields a small, heavily reused set of
#: cycle values, so the steady state allocates no Delay at all.  Delay
#: instances are immutable by convention (the interpreter only reads
#: them), which is what makes sharing safe.  Both caches share one bound
#: so pathological computed costs cannot grow either without limit.
_DELAY_CACHE_MAX = 4096

_KDELAY_CACHE: dict = {}


def kdelay(cycles: int) -> Delay:
    """A kernel-mode (non-preemptible) delay."""
    delay = _KDELAY_CACHE.get(cycles)
    if delay is None:
        delay = Delay(cycles, user=False)
        if len(_KDELAY_CACHE) < _DELAY_CACHE_MAX:
            _KDELAY_CACHE[cycles] = delay
    return delay


_UDELAY_CACHE: dict = {}


def udelay(cycles: int) -> Delay:
    """A user-mode (preemptible) delay."""
    delay = _UDELAY_CACHE.get(cycles)
    if delay is None:
        delay = Delay(cycles, user=True)
        if len(_UDELAY_CACHE) < _DELAY_CACHE_MAX:
            _UDELAY_CACHE[cycles] = delay
    return delay
