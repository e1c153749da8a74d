"""Host-time ledger: exclusive host time and call counts per layer.

A stdlib ``sys.setprofile`` hook sees every Python function call and
return, and every generator resume (a ``call``) and suspension (a
``return``).  The time between two consecutive hook events is charged
to the layer of the frame that was running, so each layer gets its
*self* time: time in its own code, plus builtins it called, minus the
Python code it called in other layers.  The layers' times, with
``outside``, sum to the traced wall time.  Nothing inside ``src/`` is
touched; the hook is armed only around :meth:`repro.System.run`.

The hook's own cost is charged too, to the layer it interrupted, so a
layer with many short calls reads high (compare ``calls``): shares rank
layers; they are not exact accounting.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter_ns
from typing import Dict, List

#: Layers, named after their lead module, and the ``repro`` modules or
#: packages each one owns (no entry is inside another).
LAYERS = {
    "sim.engine": ("sim.engine",),
    "sim.cpu": ("sim.cpu", "sim.effects", "sim.tlb", "sim.machine",
                "sim.costs", "sim.trace"),
    "kernel.fault": ("kernel.fault", "mem"),
    "kernel.kernel": ("kernel.kernel", "kernel.syscalls", "kernel.signals",
                      "kernel.flags"),
    "kernel.sched": ("kernel.sched",),
    "kernel.filecalls": ("kernel.filecalls", "fs", "ipc"),
    "kernel.proccalls": ("kernel.proccalls", "kernel.proc", "kernel.uarea",
                         "threads"),
    "share": ("share",),
    "runtime": ("runtime", "sync", "kernel.usync"),
    "obs": ("obs",),
    "workloads": ("workloads",),
}
#: any other ``repro`` module (system facade, errors, failpoints, ...)
OTHER = "other"
#: Python code outside ``repro``: the stdlib, and the benchmark's own
#: files except the simulated programs in ``suite.py``
OUTSIDE = "outside"
ALL_LAYERS = tuple(LAYERS) + (OTHER, OUTSIDE)

_PREFIXES = [(prefix, layer) for layer, prefixes in LAYERS.items()
             for prefix in prefixes]
_SUITE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite.py")


def layer_of_file(filename: str) -> str:
    """The layer that owns the code in ``filename``."""
    if os.path.abspath(filename) == _SUITE:
        # the benchmark's simulated programs are workload code
        return "workloads"
    path = filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at < 0:
        return OUTSIDE
    module = path[at + len("/repro/"):-len(".py")].replace("/", ".")
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


class Ledger:
    """Accumulates self time (ns) and calls per layer while armed.

    Use as a context manager around the code to measure; the hook is
    removed on exit even if the code raises.
    """

    def __init__(self):
        self.self_ns: Dict[str, int] = dict.fromkeys(ALL_LAYERS, 0)
        self.calls: Dict[str, int] = dict.fromkeys(ALL_LAYERS, 0)
        self._layer_of_code: Dict[object, str] = {}
        self._stack: List[str] = []
        self._current = OUTSIDE
        self._since = 0

    def _hook(self, frame, event, arg):
        if event == "call":
            now = perf_counter_ns()
            self.self_ns[self._current] += now - self._since
            self._since = now
            code = frame.f_code
            layer = self._layer_of_code.get(code)
            if layer is None:
                layer = self._layer_of_code[code] = layer_of_file(
                    code.co_filename)
            self._stack.append(self._current)
            self._current = layer
            self.calls[layer] += 1
        elif event == "return":
            now = perf_counter_ns()
            self.self_ns[self._current] += now - self._since
            self._since = now
            # frames entered before arming return into an empty stack
            self._current = self._stack.pop() if self._stack else OUTSIDE

    def __enter__(self) -> "Ledger":
        self._since = perf_counter_ns()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self.self_ns[self._current] += perf_counter_ns() - self._since

    @property
    def total_ns(self) -> int:
        return sum(self.self_ns.values())
