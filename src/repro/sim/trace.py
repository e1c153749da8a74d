"""Execution tracing: a ring buffer of kernel events.

Attach a :class:`Tracer` before running and every dispatch, syscall,
fault, signal and group event lands in a bounded ring with its cycle
timestamp — the simulated equivalent of a kernel event log, useful for
debugging workloads and for asserting orderings in tests.

    sim = System(ncpus=2)
    tracer = Tracer.attach(sim.kernel)
    ...
    sim.run()
    for event in tracer.events("syscall"):
        print(event)

Events carry a *phase* (``ph``): ``"i"`` for instants, ``"B"``/``"E"``
for typed begin/end spans (dispatch intervals on a CPU, syscalls inside
a process).  :meth:`Tracer.to_chrome_trace` pairs the spans and emits
Chrome/Perfetto trace-event JSON — one row per CPU, one per process —
loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Optional

#: synthetic Chrome pid grouping the CPU rows (real pids start at 1)
_CPU_TRACK_PID = 0


class TraceEvent:
    __slots__ = ("time", "kind", "pid", "detail", "ph", "cpu")

    def __init__(
        self,
        time: int,
        kind: str,
        pid: int,
        detail: str,
        ph: str = "i",
        cpu: Optional[int] = None,
    ):
        self.time = time
        self.kind = kind
        self.pid = pid
        self.detail = detail
        self.ph = ph  #: "i" instant, "B" span begin, "E" span end
        self.cpu = cpu  #: CPU index for CPU-track spans, else None

    def __repr__(self) -> str:
        phase = "" if self.ph == "i" else " <%s>" % self.ph
        return "[%10d] %-9s pid=%-4d %s%s" % (
            self.time, self.kind, self.pid, self.detail, phase,
        )


class Tracer:
    """A bounded event recorder wired into the kernel's hook points."""

    def __init__(self, engine, capacity: int = 10_000):
        self.engine = engine
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.enabled = True

    @classmethod
    def attach(cls, kernel, capacity: int = 10_000) -> "Tracer":
        tracer = cls(kernel.engine, capacity)
        kernel.tracer = tracer
        return tracer

    # ------------------------------------------------------------------

    def record(
        self,
        kind: str,
        pid: int,
        detail: str = "",
        ph: str = "i",
        cpu: Optional[int] = None,
    ) -> None:
        if not self.enabled:
            return
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(TraceEvent(self.engine.now, kind, pid, detail, ph, cpu))

    # ------------------------------------------------------------------

    def events(self, kind: Optional[str] = None, pid: Optional[int] = None):
        """Iterate recorded events, optionally filtered.

        Iterates over a snapshot of the ring, so hooks that record new
        events while a dump is in progress cannot invalidate iteration.
        """
        for event in tuple(self._ring):
            if kind is not None and event.kind != kind:
                continue
            if pid is not None and event.pid != pid:
                continue
            yield event

    def count(self, kind: Optional[str] = None) -> int:
        return sum(1 for _ in self.events(kind))

    def last(self, kind: Optional[str] = None) -> Optional[TraceEvent]:
        result = None
        for event in self.events(kind):
            result = event
        return result

    def dump(self, limit: int = 50) -> str:
        """The most recent events as text (newest last)."""
        tail = list(self._ring)[-limit:]
        return "\n".join(repr(event) for event in tail)

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Chrome trace export

    def to_chrome_trace(self) -> dict:
        """The ring as a Chrome trace-event dict (``json.dumps``-able).

        Layout: one Perfetto process row named ``CPUs`` whose threads
        are the CPUs (dispatch spans show which pid ran where, when),
        plus one process row per simulated pid carrying its syscall
        spans and instant events.  Begin/end pairs are folded into
        complete (``"X"``) events; a span still open when the ring ends
        is closed at the last recorded timestamp; an end whose begin was
        overwritten by ring wraparound is dropped.
        """
        events = tuple(self._ring)
        trace_events = []
        close_at = events[-1].time if events else 0

        cpus = sorted({e.cpu for e in events if e.cpu is not None})
        pids = sorted({e.pid for e in events if e.cpu is None})
        if cpus:
            trace_events.append(_meta("process_name", _CPU_TRACK_PID, 0, "CPUs"))
            for cpu in cpus:
                trace_events.append(
                    _meta("thread_name", _CPU_TRACK_PID, cpu + 1, "CPU %d" % cpu)
                )
        for pid in pids:
            trace_events.append(_meta("process_name", pid, pid, "pid %d" % pid))

        open_spans: dict = {}
        for event in events:
            track = self._track(event)
            if event.ph == "B":
                open_spans.setdefault((track, event.kind), []).append(event)
            elif event.ph == "E":
                stack = open_spans.get((track, event.kind))
                if stack:
                    begin = stack.pop()
                    trace_events.append(self._complete(begin, event.time, track))
            else:
                trace_events.append({
                    "name": event.kind,
                    "cat": event.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": event.time,
                    "pid": track[0],
                    "tid": track[1],
                    "args": {"detail": event.detail, "pid": event.pid},
                })
        for stack in open_spans.values():
            for begin in stack:
                trace_events.append(
                    self._complete(begin, close_at, self._track(begin))
                )
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def to_chrome_trace_json(self, path: Optional[str] = None) -> str:
        """Serialize :meth:`to_chrome_trace`, optionally writing ``path``."""
        text = json.dumps(self.to_chrome_trace())
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    @staticmethod
    def _track(event: TraceEvent):
        """(chrome pid, chrome tid) row for an event."""
        if event.cpu is not None:
            return (_CPU_TRACK_PID, event.cpu + 1)
        return (event.pid, event.pid)

    @staticmethod
    def _complete(begin: TraceEvent, end_time: int, track) -> dict:
        name = begin.detail or begin.kind
        if begin.cpu is not None:
            name = "pid %d" % begin.pid
        return {
            "name": name,
            "cat": begin.kind,
            "ph": "X",
            "ts": begin.time,
            "dur": max(end_time - begin.time, 0),
            "pid": track[0],
            "tid": track[1],
            "args": {"detail": begin.detail, "pid": begin.pid},
        }


def _meta(name: str, pid: int, tid: int, value: str) -> dict:
    return {
        "name": name,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }
