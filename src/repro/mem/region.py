"""Regions: the System V.3 unit of virtual memory.

A *region* describes a contiguous stretch of virtual space and owns its
page table — a list of physical frames, with ``None`` for pages that have
not been demand-faulted yet.  Regions are reference counted: a shared
region (a share group's data segment, SysV shared memory, shared text)
has one reference per attaching pregion.

Copy-on-write is carried per page: ``dup_cow`` produces a region whose
pages alias the parent's frames with elevated reference counts, and the
fault path breaks the aliasing on the first store (see
:meth:`Region.break_cow`).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import SimulationError
from repro.mem.frames import Frame, FrameAllocator, PAGE_SIZE


class RegionType(enum.Enum):
    TEXT = "text"
    DATA = "data"
    STACK = "stack"
    SHM = "shm"  #: SysV shared memory / anonymous mmap
    PRDA = "prda"  #: per-process data area (never shared)

    def __repr__(self) -> str:  # pragma: no cover
        return "RegionType.%s" % self.name


class Region:
    """A contiguous virtual extent with its page table."""

    _next_id = 0

    def __init__(self, allocator: FrameAllocator, npages: int, rtype: RegionType):
        if npages < 0:
            raise ValueError("region size cannot be negative")
        Region._next_id += 1
        self.rid = Region._next_id
        self.allocator = allocator
        self.rtype = rtype
        self.pages: List[Optional[Frame]] = [None] * npages
        self.cow: List[bool] = [False] * npages
        self.refcount = 0  #: pregions attached to this region
        self.freed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Region #%d %s %dpg ref=%d>" % (
            self.rid, self.rtype.value, len(self.pages), self.refcount,
        )

    # ------------------------------------------------------------------
    # size

    @property
    def npages(self) -> int:
        return len(self.pages)

    @property
    def nbytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    def resident_pages(self) -> int:
        return sum(1 for frame in self.pages if frame is not None)

    # ------------------------------------------------------------------
    # attachment

    def hold(self) -> "Region":
        self._check_live()
        self.refcount += 1
        return self

    def release(self) -> None:
        """Drop one attachment; free all frames at zero."""
        self._check_live()
        if self.refcount <= 0:
            raise SimulationError("release of unattached region %r" % self)
        self.refcount -= 1
        if self.refcount == 0:
            self._free_frames(0, len(self.pages))
            self.pages = []
            self.cow = []
            self.freed = True

    # ------------------------------------------------------------------
    # faulting support

    def ensure_page(self, index: int) -> Frame:
        """Demand-zero fault: materialize the frame for page ``index``."""
        self._check_index(index)
        frame = self.pages[index]
        if frame is None:
            frame = self.allocator.alloc()
            self.pages[index] = frame
            self.cow[index] = False
        return frame

    def is_cow(self, index: int) -> bool:
        self._check_index(index)
        return self.cow[index]

    def break_cow(self, index: int) -> Frame:
        """Give page ``index`` a private, writable frame.

        If the frame is shared with another region the bytes are copied
        into a fresh frame; if this region holds the last reference the
        page is simply un-marked.  Returns the now-private frame.
        """
        self._check_index(index)
        frame = self.pages[index]
        if frame is None:
            raise SimulationError("break_cow on non-resident page")
        if frame.refcount > 1:
            fresh = self.allocator.alloc()
            fresh.data[:] = frame.data
            self.allocator.release(frame)
            self.pages[index] = fresh
            frame = fresh
        self.cow[index] = False
        return frame

    # ------------------------------------------------------------------
    # duplication (fork path)

    def dup_cow(self) -> "Region":
        """Clone for copy-on-write: share frames, mark both sides COW.

        Resident pages in *both* the parent and the clone become COW so
        that whichever side writes first takes the copy.
        """
        self._check_live()
        clone = Region(self.allocator, len(self.pages), self.rtype)
        for index, frame in enumerate(self.pages):
            if frame is not None:
                clone.pages[index] = self.allocator.hold(frame)
                clone.cow[index] = True
                self.cow[index] = True
        return clone

    # ------------------------------------------------------------------
    # growth and shrinkage

    def grow(self, npages: int) -> None:
        """Extend the region by ``npages`` demand-zero pages (at the end)."""
        if npages < 0:
            raise ValueError("grow by negative count")
        self._check_live()
        self.pages.extend([None] * npages)
        self.cow.extend([False] * npages)

    def grow_front(self, npages: int) -> None:
        """Extend at the front (stacks grow downward)."""
        if npages < 0:
            raise ValueError("grow by negative count")
        self._check_live()
        self.pages[:0] = [None] * npages
        self.cow[:0] = [False] * npages

    def shrink(self, npages: int) -> None:
        """Remove ``npages`` pages from the end, freeing their frames.

        Callers in a share group must hold the shared pregion update lock
        and perform the TLB shootdown *before* calling this, per the
        paper's section 6.2 protocol.
        """
        if npages < 0:
            raise ValueError("shrink by negative count")
        if npages > len(self.pages):
            raise SimulationError("shrink below zero size")
        self._check_live()
        start = len(self.pages) - npages
        self._free_frames(start, len(self.pages))
        del self.pages[start:]
        del self.cow[start:]

    # ------------------------------------------------------------------
    # internals

    def _free_frames(self, start: int, end: int) -> None:
        for index in range(start, end):
            frame = self.pages[index]
            if frame is not None:
                self.allocator.release(frame)
                self.pages[index] = None

    def _check_live(self) -> None:
        if self.freed:
            raise SimulationError("operation on freed region %r" % self)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.pages):
            raise SimulationError(
                "page index %d out of range for %r" % (index, self)
            )
