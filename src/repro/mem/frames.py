"""Physical page frames and their allocator.

Frames carry real bytes (a ``bytearray`` per frame).  This is what makes
resource sharing *observable* in the simulation: when two share-group
members map the same frame, a store by one is genuinely visible to a load
by the other, while a copy-on-write child sees its own private copy.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1


def page_round_up(nbytes: int) -> int:
    """Round a byte count up to a whole number of pages."""
    return (nbytes + PAGE_MASK) & ~PAGE_MASK


def pages_for(nbytes: int) -> int:
    """Number of pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_MASK) >> PAGE_SHIFT


class Frame:
    """One physical page frame."""

    __slots__ = ("pfn", "data", "refcount")

    def __init__(self, pfn: int):
        self.pfn = pfn
        self.data = bytearray(PAGE_SIZE)
        self.refcount = 0  #: regions referencing this frame (COW sharing)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Frame pfn=%d ref=%d>" % (self.pfn, self.refcount)


class FrameAllocator:
    """A free-list allocator over a fixed pool of physical frames.

    Nothing looks a frame up by number: region page slots and TLB
    entries hold the Frame itself, so the allocator keeps only the free
    pfns.  A freed frame keeps its pfn but drops to refcount 0, which is
    how a stale reference to it is recognised.
    """

    def __init__(self, nframes: int):
        if nframes <= 0:
            raise ValueError("need at least one physical frame")
        self.nframes = nframes
        self._free: List[int] = list(range(nframes - 1, -1, -1))
        self.allocated = 0
        self.peak = 0
        self.inject = None  #: FailPointRegistry, set by the owning Machine

    # ------------------------------------------------------------------

    def alloc(self) -> Frame:
        """Allocate a zeroed frame with refcount 1.

        Raises :class:`MemoryError` when physical memory is exhausted —
        the VM layer turns this into ``ENOMEM`` for the guest.
        """
        if self.inject is not None and self.inject.fire("frames.alloc"):
            raise MemoryError(
                "out of physical frames (injected at frames.alloc)"
            )
        if not self._free:
            raise MemoryError("out of physical frames (%d in use)" % self.allocated)
        pfn = self._free.pop()
        frame = Frame(pfn)
        frame.refcount = 1
        self.allocated += 1
        self.peak = max(self.peak, self.allocated)
        return frame

    def hold(self, frame: Frame) -> Frame:
        """Add a reference (e.g. COW sharing on fork)."""
        if frame.refcount <= 0:
            raise SimulationError("hold on dead frame %d" % frame.pfn)
        frame.refcount += 1
        return frame

    def release(self, frame: Frame) -> None:
        """Drop a reference; free the frame when the count reaches zero."""
        if frame.refcount <= 0:
            raise SimulationError("double free of frame %d" % frame.pfn)
        frame.refcount -= 1
        if frame.refcount == 0:
            self._free.append(frame.pfn)
            self.allocated -= 1

    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)
