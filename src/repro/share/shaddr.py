"""The shared address block (the paper's ``shaddr_t``, section 6.1).

One block exists per share group, dynamically allocated the first time a
process calls ``sproc()``.  Every member's proc entry points at it, and
it holds:

* the shared pregion list and its shared read lock (``s_region``,
  ``s_acclck``/``s_acccnt``/``s_waitcnt``/``s_updwait``),
* the member list (``s_plink``/``s_refcnt``/``s_listlock``),
* the semaphore single-threading open-file updates (``s_fupdsema``) and
  the authoritative copies of every shared non-VM resource (``s_ofile``,
  ``s_pofile``, ``s_cdir``, ``s_rdir``, ``s_cmask``, ``s_limit``,
  ``s_uid``, ``s_gid``) plus the spin lock for the miscellaneous ones
  (``s_rupdlock``).

Resources with reference counts (files and inodes) have their count
bumped by one *for the block itself*, so a modifying member can exit
before the others have re-synchronized without leaving dangling pointers
— the race the paper calls out explicitly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimulationError
from repro.fs.file import File
from repro.fs.inode import Inode
from repro.mem.addrspace import SharedVM
from repro.sync.sharedlock import SharedReadLock
from repro.sync.semaphore import Semaphore
from repro.sync.spinlock import SpinLock


class SharedAddressBlock:
    """Kernel state shared by all members of one share group."""

    def __init__(self, machine, waker, vm_lock_factory=SharedReadLock):
        # --- pregion handling -----------------------------------------
        self.shared_vm = SharedVM(machine)  #: s_region, the shared pregions
        self.vm_lock = vm_lock_factory(machine, waker, "shaddr.vm")

        # --- member list ----------------------------------------------
        self._members: List = []  #: s_plink
        self.s_refcnt = 0
        self.s_listlock = SpinLock(machine, "shaddr.list")

        # --- open file updating ----------------------------------------
        self.s_fupdsema = Semaphore(machine, waker, 1, "shaddr.fupd")
        self.s_ofile: List[Optional[File]] = []
        self.s_pofile: List[int] = []  #: per-descriptor flags copy

        # --- directories ------------------------------------------------
        self.s_cdir: Optional[Inode] = None
        self.s_rdir: Optional[Inode] = None

        # --- miscellaneous shared values --------------------------------
        self.s_rupdlock = SpinLock(machine, "shaddr.rupd")
        self.s_cmask = 0
        self.s_limit = 0
        self.s_uid = 0
        self.s_gid = 0

        # --- extensions --------------------------------------------------
        self.gang = False  #: section 8 gang-scheduling hint
        self.sgid = 0  #: sequential share-group id (observability)
        self.ks = None  #: bound ("group", sgid) kstat scope, set with sgid

        # --- statistics --------------------------------------------------
        self.updates = {"fds": 0, "dir": 0, "id": 0, "umask": 0, "ulimit": 0}
        self.syncs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<shaddr refcnt=%d members=%s>" % (
            self.s_refcnt, [proc.pid for proc in self._members],
        )

    # ------------------------------------------------------------------
    # member list (callers hold s_listlock where concurrency matters;
    # in the simulation list mutation between yields is atomic anyway)

    def add_member(self, proc) -> None:
        if proc in self._members:
            raise SimulationError("pid %d already in group" % proc.pid)
        self._members.append(proc)
        self.s_refcnt += 1

    def remove_member(self, proc) -> int:
        """Unlink a leaving member; returns the remaining reference count."""
        try:
            self._members.remove(proc)
        except ValueError:
            raise SimulationError("pid %d not in group" % proc.pid)
        self.s_refcnt -= 1
        return self.s_refcnt

    def members(self) -> List:
        return list(self._members)

    def other_members(self, proc) -> List:
        return [member for member in self._members if member is not proc]

    # ------------------------------------------------------------------
    # authoritative resource copies

    def update_ofile(self, fdtable, dispose=None) -> None:
        """Refresh ``s_ofile`` from a member's descriptor table.

        The block holds one reference per listed file, so the copy stays
        valid even if the updating member exits immediately afterwards.
        ``dispose`` is the kernel's file-release routine; the block's
        reference may be the *last* one (every member already closed the
        descriptor), and a final close must run endpoint bookkeeping
        (pipe writer counts, socket teardown).
        """
        fresh = fdtable.snapshot()
        for file in fresh:
            if file is not None:
                file.hold()
        for file in self.s_ofile:
            if file is not None:
                if dispose is not None:
                    dispose(file)
                else:
                    file.release()
        self.s_ofile = fresh
        self.s_pofile = [file.flags if file is not None else 0 for file in fresh]

    def set_dirs(self, cdir: Inode, rdir: Optional[Inode]) -> None:
        cdir.hold()
        if rdir is not None:
            rdir.hold()
        if self.s_cdir is not None:
            self.s_cdir.release()
        if self.s_rdir is not None:
            self.s_rdir.release()
        self.s_cdir = cdir
        self.s_rdir = rdir

    # ------------------------------------------------------------------
    # teardown

    def free(self, dispose_file=None) -> None:
        """Drop every reference the block holds (last member left).

        ``dispose_file`` is the kernel's file-release routine, which also
        handles endpoint bookkeeping (pipe reader/writer counts) when the
        block held the last reference; plain ``release`` is the fallback
        for unit tests.
        """
        if self.s_refcnt != 0:
            raise SimulationError("freeing shaddr with refcnt=%d" % self.s_refcnt)
        for file in self.s_ofile:
            if file is not None:
                if dispose_file is not None:
                    dispose_file(file)
                else:
                    file.release()
        self.s_ofile = []
        if self.s_cdir is not None:
            self.s_cdir.release()
            self.s_cdir = None
        if self.s_rdir is not None:
            self.s_rdir.release()
            self.s_rdir = None
