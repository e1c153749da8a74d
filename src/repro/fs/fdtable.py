"""Per-process file descriptor tables.

Descriptors are small integers indexing a per-process array of pointers
into the open file table — exactly the structure footnote 1 of the paper
describes.  Share groups do *not* share the table object itself: each
member keeps its own table and re-synchronizes it from the shared address
block's ``s_ofile`` copy at kernel entry (paper section 6.3).
:meth:`FDTable.sync_from` implements that resynchronization.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import EBADF, EMFILE, SysError
from repro.fs.file import File

#: per-process descriptor limit (generous for 1988, keeps tables small)
NOFILE = 64


class FDTable:
    """The per-process descriptor array."""

    def __init__(self, size: int = NOFILE):
        self.slots: List[Optional[File]] = [None] * size
        self.inject = None  #: FailPointRegistry, set by the kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        used = sum(1 for slot in self.slots if slot is not None)
        return "<FDTable %d/%d>" % (used, len(self.slots))

    # ------------------------------------------------------------------

    def alloc(self, file: File) -> int:
        """Install ``file`` at the lowest free descriptor (UNIX rule)."""
        if self.inject is not None and self.inject.fire("fd.alloc"):
            raise SysError(EMFILE, "injected at fd.alloc")
        for fd, slot in enumerate(self.slots):
            if slot is None:
                self.slots[fd] = file
                return fd
        raise SysError(EMFILE)

    def get(self, fd: int) -> File:
        self._check_range(fd)
        file = self.slots[fd]
        if file is None:
            raise SysError(EBADF)
        return file

    def remove(self, fd: int) -> File:
        """Clear the slot and return the file (caller releases it)."""
        file = self.get(fd)
        self.slots[fd] = None
        return file

    def dup(self, fd: int) -> int:
        file = self.get(fd)
        file.hold()
        try:
            return self.alloc(file)
        except SysError:
            file.release()
            raise

    def dup2(self, fd: int, newfd: int) -> int:
        """Point ``newfd`` at ``fd``'s file; returns ``newfd``.

        ``newfd`` is range-checked before any reference is taken.  A
        file it displaces is released, so a displaced last pipe end
        closes.
        """
        file = self.get(fd)
        self._check_range(newfd)
        if newfd == fd:
            return fd
        old = self.slots[newfd]
        self.slots[newfd] = file.hold()
        if old is not None:
            old.release()
        return newfd

    # ------------------------------------------------------------------

    def open_fds(self) -> List[int]:
        return [fd for fd, slot in enumerate(self.slots) if slot is not None]

    def close(self) -> None:
        """Empty the table, then release every file it held."""
        slots, self.slots = self.slots, [None] * len(self.slots)
        for file in slots:
            if file is not None:
                file.release()

    def fork_copy(self) -> "FDTable":
        """Duplicate for fork: same files, extra reference each."""
        child = FDTable(len(self.slots))
        child.inject = self.inject
        for fd, slot in enumerate(self.slots):
            if slot is not None:
                child.slots[fd] = slot.hold()
        return child

    def snapshot(self) -> List[Optional[File]]:
        """A plain copy of the slot array (no reference changes)."""
        return list(self.slots)

    def sync_from(self, master: List[Optional[File]]) -> int:
        """Re-synchronize from the share group's ``s_ofile`` copy.

        Slots that differ are replaced: newly shared files gain a
        reference, dropped ones are released (closing them when ours
        was the last reference).  Returns the number of slots changed.
        """
        changed = 0
        for fd in range(len(self.slots)):
            mine = self.slots[fd]
            theirs = master[fd] if fd < len(master) else None
            if mine is theirs:
                continue
            if theirs is not None:
                theirs.hold()
            if mine is not None:
                mine.release()
            self.slots[fd] = theirs
            changed += 1
        return changed

    # ------------------------------------------------------------------

    def _check_range(self, fd: int) -> None:
        if not 0 <= fd < len(self.slots):
            raise SysError(EBADF)
