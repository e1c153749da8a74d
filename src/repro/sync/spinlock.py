"""Kernel spin locks (the paper's ``lock_t``).

A spinning CPU genuinely burns simulated cycles while it polls, so lock
contention shows up in the measurements exactly the way it would on the
real machine.  Atomicity of the test-and-set comes from the discrete-
event engine: no other CPU can interleave between two yields, which is
the simulation's model of an interlocked bus operation.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.effects import kdelay


class SpinLock:
    """A busy-waiting mutual-exclusion lock for short kernel sections."""

    def __init__(self, machine, name: str = "lock"):
        self.machine = machine
        self.costs = machine.costs
        self.name = name
        self._held = False
        self.owner = None
        self._stats = machine.lockstats.get(name)
        self._lockdep = machine.lockdep
        self._acquired_at = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self._held else "free"
        return "<SpinLock %s %s>" % (self.name, state)

    def acquire(self, proc=None):
        """Generator: spin until the lock is ours."""
        self._lockdep.attempt(self, proc, "spin")
        yield kdelay(self.costs.spin_acquire)
        spun_from = self.machine.engine.now
        polls = 0
        while self._held:
            polls += 1
            yield kdelay(self.costs.spin_poll)
        self._held = True
        self.owner = proc
        self._acquired_at = self.machine.engine.now
        self._lockdep.acquired(self, proc, "spin")
        self._stats.record_acquire(
            self.machine.engine.now - spun_from, polls > 0
        )

    def try_acquire(self, proc=None) -> bool:
        """Non-blocking attempt (no cycles charged; callers charge)."""
        if self._held:
            return False
        self._lockdep.attempt(self, proc, "spin")
        self._held = True
        self.owner = proc
        self._acquired_at = self.machine.engine.now
        self._lockdep.acquired(self, proc, "spin")
        self._stats.record_acquire(0, False)
        return True

    def release(self, proc=None) -> None:
        """Free the lock.  ``proc`` is optional; when given, lockdep can
        verify the releaser actually owns the lock."""
        if not self._held:
            raise SimulationError("release of free spinlock %s" % self.name)
        self._lockdep.released(self, proc)
        self._held = False
        self.owner = None
        self._stats.record_hold(self.machine.engine.now - self._acquired_at)

    @property
    def held(self) -> bool:
        return self._held
