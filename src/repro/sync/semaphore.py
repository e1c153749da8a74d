"""Kernel sleeping semaphores (the paper's ``sema_t``).

Blocking on a semaphore gives up the CPU; the ``V`` side hands the wakeup
to the scheduler (any object with a ``wakeup(proc)`` method, so the
primitive is testable without a full kernel).

Interruptible sleeps implement the classic UNIX rule: a signal aimed at a
process sleeping interruptibly removes it from the wait queue and its
``p()`` returns ``False``, which kernel callers translate into ``EINTR``.

:class:`WaitQueue` builds the condition sleep on one: the single home
of the "bank before you sleep" protocol every blocking IPC call uses.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.effects import Block, kdelay


class _Interrupted:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<interrupted>"


#: resume value delivered to a sleeper kicked off the queue by a signal
INTERRUPTED = _Interrupted()


class Semaphore:
    """A counting semaphore whose waiters sleep (no busy waiting)."""

    def __init__(self, machine, waker, value: int = 0, name: str = "sema"):
        if value < 0:
            raise ValueError("semaphore value cannot be negative")
        self.machine = machine
        self.costs = machine.costs
        self.waker = waker
        self.name = name
        self._value = value
        self._waiters: Deque = deque()
        self._stats = machine.lockstats.get(name)
        self._lockdep = machine.lockdep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Semaphore %s v=%d w=%d>" % (self.name, self._value, len(self._waiters))

    # ------------------------------------------------------------------

    def p(self, proc, interruptible: bool = False):
        """Generator: decrement, sleeping while the count is zero.

        Returns ``True`` normally, ``False`` if the sleep was interrupted
        by a signal (only possible when ``interruptible``).
        """
        self._lockdep.attempt(self, proc, "sema")
        yield kdelay(self.costs.sema_op)
        if self._value > 0:
            self._value -= 1
            self._stats.record_acquire(0, False)
            return True
        if interruptible and getattr(proc, "pending", None):
            # A signal arrived on our way in (classic sleep()-with-PCATCH
            # check): interrupt rather than sleep past it.
            return False
        self._lockdep.sleeping(proc, "P(%s)" % self.name)
        self._waiters.append(proc)
        proc.sleeping_on = self
        proc.sleep_interruptible = interruptible
        proc.state = proc.SLEEPING
        slept_from = self.machine.engine.now
        result = yield Block("P(%s)" % self.name)
        proc.sleeping_on = None
        proc.sleep_interruptible = False
        if result is INTERRUPTED:
            return False
        self._stats.record_acquire(
            self.machine.engine.now - slept_from, True
        )
        return True

    def cp(self) -> bool:
        """Conditional P: take the semaphore only if it will not block."""
        if self._value > 0:
            self._value -= 1
            return True
        return False

    def v(self) -> None:
        """Increment; hand the unit straight to the longest waiter.

        Under seeded perturbation (``Engine(seed=...)``, the schedule
        explorer) the unit goes to a *random* waiter instead: any waiter
        is a legal recipient, and varying the choice explores wakeup
        orders the FIFO default would never produce.
        """
        if self._waiters:
            engine = self.machine.engine
            if len(self._waiters) > 1 and engine.perturbs("wakeup"):
                index = engine.rng.randrange(len(self._waiters))
                proc = self._waiters[index]
                del self._waiters[index]
            else:
                proc = self._waiters.popleft()
            proc.sleeping_on = None
            proc.resume_value = None
            self.waker.wakeup(proc)
        else:
            self._value += 1

    def v_all(self) -> None:
        """Wake every waiter (broadcast); the count is untouched."""
        while self._waiters:
            self.v()

    # ------------------------------------------------------------------
    # signal interaction

    def cancel(self, proc) -> bool:
        """Kick ``proc`` off the wait queue because a signal arrived.

        The sleeper resumes with :data:`INTERRUPTED`.  Returns ``False``
        if the process was not actually waiting here (lost race with a
        concurrent ``v()`` — the unit is kept and the sleep completes
        normally, as in the real kernel).
        """
        try:
            self._waiters.remove(proc)
        except ValueError:
            return False
        proc.sleeping_on = None
        proc.resume_value = INTERRUPTED
        self.waker.wakeup(proc)
        return True

    # ------------------------------------------------------------------

    @property
    def value(self) -> int:
        return self._value

    @property
    def nwaiters(self) -> int:
        return len(self._waiters)


class WaitQueue:
    """Sleep until a condition may have changed (pipes, sockets, SysV
    semaphore sets, usync channels).

    A sleeper banks a claim in the same atomic step as its condition
    check, and a waker pays out one ``v()`` per banked claim; ``v()``
    keeps the unit when the sleeper has not reached the semaphore yet,
    so a wakeup issued in between is never lost.  Every queue is listed
    on ``machine.waitqueues`` for the leak audit.
    """

    __slots__ = ("sema", "waiters")

    def __init__(self, machine, waker, name: str):
        self.sema = Semaphore(machine, waker, 0, name)
        #: banked claims not yet paid out
        self.waiters = 0
        machine.waitqueues.append(self)

    def sleep(self, proc):
        """Generator: bank a claim and sleep interruptibly.

        Returns ``True`` when woken, ``False`` when a signal interrupted
        the sleep (callers translate that into ``EINTR``).  An
        interrupted sleeper takes its claim back: un-banked if it is
        still banked, else the unit a waker already paid for it.
        """
        self.waiters += 1
        if (yield from self.sema.p(proc, interruptible=True)):
            return True
        if self.waiters:
            self.waiters -= 1
        else:
            self.sema.cp()
        return False

    def wake(self, n: Optional[int] = None) -> int:
        """Pay out ``n`` banked claims (all of them when None, at most
        as many as are banked); returns the number paid."""
        count = self.waiters if n is None else min(n, self.waiters)
        self.waiters -= count
        for _ in range(count):
            self.sema.v()
        return count
