"""The proc structure and process table.

A share group member carries a pointer to the group's shared address
block plus its kernel-side share mask (``p_shmask``) and the sync bits in
``p_flag`` (see :mod:`repro.kernel.flags`).  Everything else is the
classic System V proc entry, trimmed to what the simulation exercises.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.errors import EAGAIN, SimulationError, SysError
from repro.kernel.signals import PendingSet
from repro.kernel.uarea import UArea


class ProcState(enum.Enum):
    EMBRYO = "embryo"  #: being created
    RUNNABLE = "runnable"  #: on a run queue
    RUNNING = "running"  #: on a CPU
    SLEEPING = "sleeping"  #: blocked on a semaphore / wait channel
    ZOMBIE = "zombie"  #: exited, awaiting wait()


#: default scheduling priority (lower number = runs first)
PRI_USER = 20


class Proc:
    """One process.

    Slotted: the proc entry is touched on every dispatch, boundary and
    syscall, so attribute access goes through fixed slots rather than a
    per-instance dict.  ``api`` and ``ks`` are assigned by
    ``Kernel._new_proc``.
    """

    __slots__ = (
        "pid", "name", "state", "pri",
        "parent", "children", "exit_status",
        "uarea", "vm",
        "shaddr", "p_shmask", "p_flag",
        "task",
        "pending", "delivering",
        "frames", "saved_resume", "resume_value", "need_resched",
        "quantum_left", "cpu", "last_cpu", "runq_since", "in_kernel",
        "alarm_event",
        "block_count", "block_sema",
        "sleeping_on", "sleep_interruptible", "child_wait",
        "syscalls", "faults", "ks",
        "api",
    )

    # Exposed so synchronization code can set states without importing us.
    RUNNABLE = ProcState.RUNNABLE
    RUNNING = ProcState.RUNNING
    SLEEPING = ProcState.SLEEPING
    ZOMBIE = ProcState.ZOMBIE

    def __init__(self, pid: int, uarea: UArea, vm, name: str = ""):
        self.pid = pid
        self.name = name or ("proc%d" % pid)
        self.state = ProcState.EMBRYO
        self.pri = PRI_USER

        # family
        self.parent: Optional["Proc"] = None
        self.children: List["Proc"] = []
        self.exit_status = 0

        # resources
        self.uarea = uarea
        self.vm = vm

        # share group (the paper's additions to the proc entry)
        self.shaddr = None  #: SharedAddressBlock or None
        self.p_shmask = 0  #: kernel copy of the share mask
        self.p_flag = 0  #: resource sync bits

        # Mach-style baseline: the task this proc is a thread of, if any
        self.task = None

        # signals
        self.pending = PendingSet()
        self.delivering = 0  #: depth of in-progress handler delivery

        # execution state driven by the CPU interpreter
        self.frames: List = []  #: generator stack; bottom is the program
        self.saved_resume: List = []  #: resume values saved per pushed frame
        self.resume_value = None
        self.need_resched = False
        self.quantum_left = 0
        self.cpu = None
        self.last_cpu: Optional[int] = None  #: scheduler affinity hint
        self.runq_since: Optional[int] = None  #: cycle it was last enqueued
        self.in_kernel = False

        # pending alarm (engine event), cancelled at exit
        self.alarm_event = None

        # blockproc/unblockproc state (section 8 extension)
        self.block_count = 0
        self.block_sema = None

        # sleep bookkeeping
        self.sleeping_on = None
        self.sleep_interruptible = False
        self.child_wait = None  #: Semaphore armed by the kernel for wait()

        # statistics
        self.syscalls = 0
        self.faults = 0
        self.ks = None  #: bound ("proc", pid) kstat scope, set by _new_proc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Proc %d %s %s>" % (self.pid, self.name, self.state.value)

    # ------------------------------------------------------------------

    def shares(self, mask_bit: int) -> bool:
        """Is this process sharing the resource named by ``mask_bit``?"""
        return self.shaddr is not None and bool(self.p_shmask & mask_bit)

    def alive(self) -> bool:
        return self.state not in (ProcState.ZOMBIE,)


class ProcTable:
    """pid allocation and lookup."""

    def __init__(self, max_procs: int = 1000):
        self.max_procs = max_procs
        self._procs: Dict[int, Proc] = {}
        self._next_pid = 0

    def alloc_pid(self) -> int:
        """The next pid; a full table (zombies count) fails EAGAIN."""
        if len(self._procs) >= self.max_procs:
            raise SysError(EAGAIN, "process table full")
        self._next_pid += 1
        return self._next_pid

    def insert(self, proc: Proc) -> None:
        if proc.pid in self._procs:
            raise SimulationError("duplicate pid %d" % proc.pid)
        self._procs[proc.pid] = proc

    def remove(self, proc: Proc) -> None:
        if self._procs.pop(proc.pid, None) is None:
            raise SimulationError("removing unknown pid %d" % proc.pid)

    def get(self, pid: int) -> Optional[Proc]:
        return self._procs.get(pid)

    def all_procs(self) -> List[Proc]:
        return list(self._procs.values())

    def __len__(self) -> int:
        return len(self._procs)

    def __contains__(self, pid: int) -> bool:
        return pid in self._procs
