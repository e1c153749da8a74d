"""Thread system calls (kernel mixin) for the Mach-style baseline."""

from __future__ import annotations

from repro.sim.effects import kdelay
from repro.threads.task import Task


class ThreadSyscalls:
    """Kernel mixin: thread_create / thread_join."""

    def sys_thread_create(self, proc, entry, arg=0):
        """Spawn a thread sharing *everything* with the caller.

        Only a kernel stack, register state and a user stack carve are
        allocated — no page tables, no u-area copy, no region work.
        """
        yield kdelay(self.costs.thread_alloc)
        # No VM work at all: the user stack comes out of the task's heap
        # (Mach semantics), so only kernel-side thread state is built.
        thread = self._new_proc(proc.uarea, proc.vm, proc.name + "+t", proc)
        (proc.task or Task(proc)).add(thread)
        self.stats["thread_creates"] += 1
        self._start_child(thread, entry, arg)
        return thread.pid

    def sys_thread_join(self, proc):
        """Wait for a child thread (or process) to exit."""
        result = yield from self.sys_wait(proc)
        return result
