"""Mach-style tasks: the share-everything baseline.

The paper's Figure 3 model: one *task* (address space + resources) with
multiple *threads* of control, each carrying only a kernel stack and
register state.  In the simulation a thread is a :class:`Proc` that
literally references the creating process's :class:`AddressSpace` and
:class:`UArea` objects — nothing is selective, which is exactly the
limitation share groups were designed around (no per-thread PRDA, no
private ``errno``, no choosing what to share).

Thread creation therefore skips all VM and u-area duplication, making it
roughly an order of magnitude cheaper than ``fork()`` — the Mach claim
quoted in the paper's section 3 and reproduced by experiment E1.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError


class Task:
    """The thread group sharing one address space and u-area."""

    def __init__(self, leader):
        self.threads: List = [leader]
        self.leader = leader
        leader.task = self

    def __repr__(self) -> str:  # pragma: no cover
        return "<Task leader=%d nthreads=%d>" % (self.leader.pid, len(self.threads))

    def add(self, thread) -> None:
        if thread in self.threads:
            raise SimulationError("thread %d already in task" % thread.pid)
        self.threads.append(thread)
        thread.task = self

    def remove(self, thread) -> int:
        """Unlink an exiting thread; returns how many remain."""
        try:
            self.threads.remove(thread)
        except ValueError:
            raise SimulationError("thread %d not in task" % thread.pid)
        return len(self.threads)
