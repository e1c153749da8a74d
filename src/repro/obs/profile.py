"""Host-side self-profiler: where does the *simulator's* wall time go?

Every other observability layer measures the simulated machine; this one
measures the simulator.  A :class:`HostProfiler` carries a stack of
*phases* — named regions of the DES core (the engine event loop, the CPU
interpreter dispatch, the fault-path pregion walk, the kstat/trace
hooks, the inject checks) — and attributes host ``perf_counter`` time
exclusively to the innermost active phase.  The headline number is
``sim_cycles_per_host_sec``: how many simulated cycles one host second
buys, the metric the ROADMAP's 10x host-speed refactor will be gated on.

Disarmed fast path (the lockdep/inject pattern): ``NULL_PROFILER`` is a
singleton whose ``enabled`` is False; every hook point is a single
attribute test away from doing nothing, so a run without ``--profile``
is host-state-identical to a build without the profiler at all.  The
profiler never reads or writes simulated state, so armed runs are
*cycle-identical* to disarmed ones (held by ``tests/test_profile.py``).

Two hook idioms, chosen by nesting:

* **stack phases** (``push``/``pop``) for regions that contain other
  phases — the engine loop and the interpreter dispatch;
* **leaf phases** (``t0 = prof.clock()`` … ``prof.leaf(name, t0)``) for
  the short, non-nesting hooks (kstat, trace, inject, pregion resolve) —
  one combined bookkeeping call instead of a push/pop pair.

Probe effect: timing a leaf costs two clock reads, which for very hot
hooks can rival the hook body itself.  (The hottest kstat sites bump
bound handles, which are not timed at all, so ``obs.kstat`` covers only
registry-method calls.)  The breakdown is for *ranking* phases, not for
nanosecond-accurate accounting — treat small leaf phases as upper
bounds.

A :class:`ProfileSession` aggregates every profiler created while it is
active (the ``--profile`` CLI flag opens one), merging per-phase time
across the many ``System`` instances one benchmark builds and across
``multiprocessing`` shards, and renders the per-phase table that lands
in ``BENCH_HOST.json``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

#: phase names used by the built-in hooks (docs + report ordering)
KNOWN_PHASES = (
    "engine.loop",    # heap pops, event bookkeeping, callback overhead
    "engine.inline",  # inline-continuation bursts (trampoline-elided hops)
    "cpu.interp",     # generator resume + effect interpretation
    "fault.resolve",  # pregion-list walk on a TLB refill
    "obs.kstat",      # kstat registry-method calls (bound handles are untimed)
    "obs.trace",      # tracer record hooks (when a tracer is attached)
    "inject.fire",    # failpoint hit checks
)


class HostProfiler:
    """Exclusive per-phase host-time accounting for one machine.

    Time between phase transitions is credited to the phase on top of
    the stack, so nested phases subtract from their parents and the
    reported seconds sum to (approximately) the profiled wall time.
    """

    __slots__ = (
        "enabled", "seconds", "hits", "counters", "wall_seconds",
        "sim_cycles", "events", "runs", "_clock", "_stack", "_last",
        "_run_wall0", "_run_cycles0", "_run_events0",
    )

    #: the disarmed singleton overrides this; hooks test only this flag
    def __init__(self, clock=time.perf_counter):
        self.enabled = True
        self._clock = clock
        self.seconds: Dict[str, float] = {}   #: phase -> exclusive host s
        self.hits: Dict[str, int] = {}        #: phase -> enter count
        self.counters: Dict[str, int] = {}    #: named event counts
        self.wall_seconds = 0.0               #: total time inside Engine.run
        self.sim_cycles = 0                   #: cycles advanced while profiled
        self.events = 0                       #: engine events while profiled
        self.runs = 0                         #: Engine.run invocations
        self._stack: List[str] = []
        self._last: Optional[float] = None
        self._run_wall0 = 0.0
        self._run_cycles0 = 0
        self._run_events0 = 0

    # ------------------------------------------------------------------
    # hook API (hot; every branch counts)

    def clock(self) -> float:
        return self._clock()

    def push(self, phase: str) -> None:
        """Enter a stack phase; time since the last transition goes to
        the enclosing phase."""
        now = self._clock()
        stack = self._stack
        last = self._last
        if last is not None and stack:
            top = stack[-1]
            seconds = self.seconds
            seconds[top] = seconds.get(top, 0.0) + (now - last)
        stack.append(phase)
        hits = self.hits
        hits[phase] = hits.get(phase, 0) + 1
        self._last = now

    def pop(self) -> None:
        """Leave the current stack phase, crediting it."""
        now = self._clock()
        stack = self._stack
        last = self._last
        if last is not None:
            top = stack[-1]
            seconds = self.seconds
            seconds[top] = seconds.get(top, 0.0) + (now - last)
        stack.pop()
        self._last = now if stack else None

    def leaf(self, phase: str, t0: float) -> None:
        """Credit a leaf phase that began at ``t0`` (from :meth:`clock`).

        Equivalent to ``push(phase)`` at ``t0`` + ``pop()`` now, with two
        clock reads instead of four.
        """
        now = self._clock()
        if self._last is not None and self._stack:
            top = self._stack[-1]
            self.seconds[top] = self.seconds.get(top, 0.0) + (t0 - self._last)
            self._last = now
        self.seconds[phase] = self.seconds.get(phase, 0.0) + (now - t0)
        self.hits[phase] = self.hits.get(phase, 0) + 1

    def count(self, name: str, n: int) -> None:
        """Accumulate a named occurrence counter (no timing attached).

        Used for fast-path hit-rate telemetry — e.g. ``inline_hops`` /
        ``inline_fallbacks`` from the engine's inline-continuation slot —
        where the interesting number is *how often*, not *how long*.
        """
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Engine.run session bracketing

    def run_begin(self, cycles: int, events: int) -> None:
        self._run_wall0 = self._clock()
        self._run_cycles0 = cycles
        self._run_events0 = events
        self.runs += 1
        self.push("engine.loop")

    def run_end(self, cycles: int, events: int) -> None:
        self.pop()
        self.wall_seconds += self._clock() - self._run_wall0
        self.sim_cycles += cycles - self._run_cycles0
        self.events += events - self._run_events0

    # ------------------------------------------------------------------
    # results

    @property
    def sim_cycles_per_host_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.sim_cycles / self.wall_seconds

    def summary(self) -> dict:
        """One JSON-serialisable dict: phases, wall, cycles, the rate."""
        return {
            "phases": {
                name: {"seconds": self.seconds.get(name, 0.0),
                       "hits": self.hits.get(name, 0)}
                for name in sorted(set(self.seconds) | set(self.hits))
            },
            "counters": dict(self.counters),
            "wall_seconds": self.wall_seconds,
            "sim_cycles": self.sim_cycles,
            "events": self.events,
            "runs": self.runs,
            "sim_cycles_per_host_sec": self.sim_cycles_per_host_sec,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<HostProfiler %.3fs %d cycles>" % (
            self.wall_seconds, self.sim_cycles)


class NullProfiler:
    """The disarmed profiler: ``enabled`` is False, everything no-ops.

    Hook points test ``profile.enabled`` and skip their timing branch,
    so the only cost of a disarmed build is that single attribute test —
    the same bargain ``NULL_LOCKDEP`` and the inject registry strike.
    """

    __slots__ = ()
    enabled = False

    def clock(self) -> float:  # pragma: no cover - never on the fast path
        return 0.0

    def push(self, phase: str) -> None:  # pragma: no cover
        pass

    def pop(self) -> None:  # pragma: no cover
        pass

    def leaf(self, phase: str, t0: float) -> None:  # pragma: no cover
        pass

    def count(self, name: str, n: int) -> None:  # pragma: no cover
        pass

    def run_begin(self, cycles: int, events: int) -> None:  # pragma: no cover
        pass

    def run_end(self, cycles: int, events: int) -> None:  # pragma: no cover
        pass


NULL_PROFILER = NullProfiler()


# ----------------------------------------------------------------------
# session aggregation (the --profile CLI plumbing)


class ProfileSession:
    """Aggregates every profiler created while the session is active.

    One benchmark builds many ``System``s (ablation pairs, quiet
    determinism runs); a seed sweep builds them in worker processes and
    ships summaries back.  ``merged()`` folds all of it into one
    breakdown; ``wall_seconds`` then means *host-CPU seconds* (shards
    overlap in wall-clock), which is the right denominator for a
    machine-speed metric.
    """

    def __init__(self):
        self.profilers: List[HostProfiler] = []
        self.extra_summaries: List[dict] = []  #: from worker processes

    def add(self, profiler: HostProfiler) -> None:
        self.profilers.append(profiler)

    def absorb(self, summary: dict) -> None:
        """Fold in a summary dict produced in another process."""
        self.extra_summaries.append(summary)

    def merged(self) -> dict:
        phases: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, int] = {}
        wall = 0.0
        cycles = 0
        events = 0
        runs = 0
        systems = 0
        for summary in (
            [prof.summary() for prof in self.profilers] + self.extra_summaries
        ):
            systems += 1
            wall += summary.get("wall_seconds", 0.0)
            cycles += summary.get("sim_cycles", 0)
            events += summary.get("events", 0)
            runs += summary.get("runs", 0)
            for name, row in summary.get("phases", {}).items():
                slot = phases.setdefault(name, {"seconds": 0.0, "hits": 0})
                slot["seconds"] += row.get("seconds", 0.0)
                slot["hits"] += row.get("hits", 0)
            for name, value in summary.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        return {
            "phases": {name: phases[name] for name in sorted(phases)},
            "counters": {name: counters[name] for name in sorted(counters)},
            "wall_seconds": wall,
            "sim_cycles": cycles,
            "events": events,
            "runs": runs,
            "profilers": systems,
            "sim_cycles_per_host_sec": cycles / wall if wall > 0 else 0.0,
        }

    def render(self) -> str:
        """The per-phase host-time breakdown as an aligned text table."""
        merged = self.merged()
        wall = merged["wall_seconds"]
        lines = [
            "HOST PROFILE (%d profiler(s), %.3f host-s inside Engine.run)"
            % (merged["profilers"], wall),
            "%-16s %12s %12s %8s" % ("phase", "host-sec", "hits", "share"),
            "-" * 52,
        ]
        known = [n for n in KNOWN_PHASES if n in merged["phases"]]
        extra = [n for n in sorted(merged["phases"]) if n not in KNOWN_PHASES]
        for name in known + extra:
            row = merged["phases"][name]
            share = row["seconds"] / wall if wall > 0 else 0.0
            lines.append(
                "%-16s %12.4f %12s %7.1f%%"
                % (name, row["seconds"], "{:,}".format(row["hits"]),
                   100.0 * share)
            )
        counters = merged.get("counters", {})
        if counters:
            lines.append(
                "counters: "
                + "  ".join(
                    "%s=%s" % (name, "{:,}".format(counters[name]))
                    for name in sorted(counters)
                )
            )
            hops = counters.get("inline_hops", 0)
            fallbacks = counters.get("inline_fallbacks", 0)
            if hops or fallbacks:
                lines.append(
                    "inline hit rate: %.1f%% (%s hops, %s fallbacks, "
                    "%s queued events)"
                    % (
                        100.0 * hops / max(1, merged["events"]),
                        "{:,}".format(hops),
                        "{:,}".format(fallbacks),
                        "{:,}".format(merged["events"] - hops),
                    )
                )
        lines.append(
            "sim cycles %s in %.3f host-s -> %s cycles/host-sec "
            "(%s events)"
            % ("{:,}".format(merged["sim_cycles"]), wall,
               "{:,.0f}".format(merged["sim_cycles_per_host_sec"]),
               "{:,}".format(merged["events"]))
        )
        return "\n".join(lines)


_session: Optional[ProfileSession] = None


def begin_session() -> ProfileSession:
    """Open a global session: Systems built with ``profile=None`` arm
    themselves and register here until :func:`end_session`."""
    global _session
    _session = ProfileSession()
    return _session


def end_session() -> Optional[ProfileSession]:
    global _session
    session, _session = _session, None
    return session


def active_session() -> Optional[ProfileSession]:
    return _session
