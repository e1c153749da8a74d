"""The user area: per-process kernel state.

In System V.3 the u-area is swappable memory addressable only while its
process runs — which is exactly why the paper keeps an *extra* copy of
every shared resource in the shared address block: another member cannot
reach this structure directly, so it re-syncs its own u-area from the
shaddr copy at kernel entry (section 6.3).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fs.fdtable import FDTable
from repro.fs.inode import Inode
from repro.fs.fsys import Credentials
from repro.kernel.signals import SIG_DFL

#: default maximum file write offset (the classic ulimit, in bytes)
DEFAULT_ULIMIT = 1 << 30

#: default file-creation mask
DEFAULT_UMASK = 0o022


class UArea:
    """Everything the kernel keeps per process outside the proc entry."""

    def __init__(self, cdir: Inode, rdir: Optional[Inode] = None):
        self.fdtable = FDTable()
        self.cdir = cdir.hold()
        self.rdir = rdir.hold() if rdir is not None else None
        self.cmask = DEFAULT_UMASK
        self.ulimit = DEFAULT_ULIMIT
        self.uid = 0
        self.gid = 0
        self.handlers: Dict[int, object] = {}  #: sig -> SIG_DFL/SIG_IGN/callable

    # ------------------------------------------------------------------
    # directories

    def set_cdir(self, inode: Inode) -> None:
        inode.hold()
        self.cdir.release()
        self.cdir = inode

    def set_rdir(self, inode: Optional[Inode]) -> None:
        if inode is not None:
            inode.hold()
        if self.rdir is not None:
            self.rdir.release()
        self.rdir = inode

    # ------------------------------------------------------------------
    # identity

    def cred(self) -> Credentials:
        return Credentials(self.uid, self.gid)

    # ------------------------------------------------------------------
    # signal handlers

    def handler(self, sig: int):
        return self.handlers.get(sig, SIG_DFL)

    def set_handler(self, sig: int, action) -> None:
        self.handlers[sig] = action

    def reset_handlers(self) -> None:
        """exec() resets caught signals to their defaults."""
        self.handlers = {
            sig: action for sig, action in self.handlers.items()
            if not callable(action)
        }

    # ------------------------------------------------------------------
    # duplication / teardown

    def fork_copy(self) -> "UArea":
        """Duplicate for fork/sproc: same values, fresh references."""
        child = UArea(self.cdir, self.rdir)
        child.fdtable = self.fdtable.fork_copy()
        child.cmask = self.cmask
        child.ulimit = self.ulimit
        child.uid = self.uid
        child.gid = self.gid
        child.handlers = dict(self.handlers)
        return child

    def release(self) -> None:
        """Drop every reference the u-area holds: its descriptors, then
        its directories."""
        self.fdtable.close()
        self.cdir.release()
        if self.rdir is not None:
            self.rdir.release()
