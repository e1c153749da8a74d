"""Lock-contention profiling: who waits, for how long, on which lock.

Every named synchronization object (spin locks, sleeping semaphores,
the shared read lock, user-level rwlocks) reports into one registry
hung off the :class:`~repro.sim.machine.Machine`.  Stats are keyed by
lock *name*, so same-named locks (one per share group, say) aggregate —
which is what a contention report wants to show.

Recorded per lock:

* ``acquisitions`` — successful acquires;
* ``contended`` — acquires that had to spin or sleep first;
* ``wait_cycles`` / ``max_wait`` — simulated cycles spent waiting;
* ``hold_cycles`` / ``max_hold`` — cycles held (where the primitive has
  hold semantics; semaphores do not report holds).

All figures are in *simulated* cycles read off the event engine, so the
profile is deterministic and measures the system under test, not the
host.
"""

from __future__ import annotations

from typing import Dict, List


class LockStat:
    """Contention accounting for one named lock."""

    __slots__ = (
        "name", "acquisitions", "contended", "wait_cycles", "max_wait",
        "hold_count", "hold_cycles", "max_hold",
    )

    def __init__(self, name: str):
        self.name = name
        self.acquisitions = 0
        self.contended = 0
        self.wait_cycles = 0
        self.max_wait = 0
        self.hold_count = 0
        self.hold_cycles = 0
        self.max_hold = 0

    # ------------------------------------------------------------------

    def record_acquire(self, waited: int, contended: bool) -> None:
        self.acquisitions += 1
        if contended:
            self.contended += 1
            self.wait_cycles += waited
            if waited > self.max_wait:
                self.max_wait = waited

    def record_hold(self, held: int) -> None:
        self.hold_count += 1
        self.hold_cycles += held
        if held > self.max_hold:
            self.max_hold = held

    # ------------------------------------------------------------------

    @property
    def contention_ratio(self) -> float:
        return self.contended / self.acquisitions if self.acquisitions else 0.0

    def as_dict(self) -> dict:
        return {
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "wait_cycles": self.wait_cycles,
            "max_wait": self.max_wait,
            "hold_count": self.hold_count,
            "hold_cycles": self.hold_cycles,
            "max_hold": self.max_hold,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<LockStat %s acq=%d cont=%d wait=%d>" % (
            self.name, self.acquisitions, self.contended, self.wait_cycles,
        )


class _NullLockStat(LockStat):
    """Sink handed out by a disabled registry: recording is a no-op."""

    def record_acquire(self, waited: int, contended: bool) -> None:
        pass

    def record_hold(self, held: int) -> None:
        pass


class LockStatRegistry:
    """All lock stats for one machine, keyed by lock name."""

    __slots__ = ("enabled", "_stats", "_null")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._stats: Dict[str, LockStat] = {}
        self._null = _NullLockStat("disabled")

    def get(self, name: str) -> LockStat:
        """The stat bucket for ``name``, created on first use.

        A disabled registry hands out a shared no-op bucket, so locks
        may cache the result without re-checking the flag.
        """
        if not self.enabled:
            return self._null
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = LockStat(name)
        return stat

    def all(self) -> List[LockStat]:
        return list(self._stats.values())

    def top(self, n: int = 10, key: str = "wait_cycles") -> List[LockStat]:
        """The ``n`` most-contended locks, worst first.

        Sorted by ``key`` (default: total cycles spent waiting), with
        contended-acquisition count as the tiebreaker; locks nobody ever
        waited on sort last.
        """
        return sorted(
            self._stats.values(),
            key=lambda s: (getattr(s, key), s.contended, s.acquisitions),
            reverse=True,
        )[:n]

    def snapshot(self) -> dict:
        return {name: stat.as_dict() for name, stat in self._stats.items()}

    # ------------------------------------------------------------------

    def report(self, n: int = 10) -> str:
        """The top-N contended locks as an aligned text table."""
        header = "%-28s %10s %9s %12s %10s %12s %10s" % (
            "LOCK", "ACQUIRES", "CONTENDED", "WAIT-CYCLES",
            "MAX-WAIT", "HOLD-CYCLES", "MAX-HOLD",
        )
        lines = [header, "-" * len(header)]
        for stat in self.top(n):
            lines.append(
                "%-28s %10d %9d %12d %10d %12d %10d" % (
                    stat.name[:28], stat.acquisitions, stat.contended,
                    stat.wait_cycles, stat.max_wait,
                    stat.hold_cycles, stat.max_hold,
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<LockStatRegistry locks=%d>" % len(self._stats)
