"""Pregions: per-attachment views of regions.

A *pregion* records where in an address space a region is attached, with
what protection, and how it grows.  Pregions live either on a process's
private list or — for share-group members — on the shared list inside the
group's shared address block (the paper's ``s_region`` field).
"""

from __future__ import annotations

import enum

from repro.errors import SimulationError
from repro.mem.frames import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.mem.region import Region, RegionType

PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4
PROT_RW = PROT_READ | PROT_WRITE
PROT_RX = PROT_READ | PROT_EXEC


class Growth(enum.Enum):
    NONE = "none"
    UP = "up"  #: data segments grow toward higher addresses (sbrk)
    DOWN = "down"  #: stacks grow toward lower addresses


class Pregion:
    """Attachment of a :class:`Region` at a virtual base address."""

    __slots__ = ("region", "vbase", "prot", "growth", "max_pages", "owner")

    def __init__(
        self,
        region: Region,
        vbase: int,
        prot: int,
        growth: Growth = Growth.NONE,
        max_pages: int = 0,
    ):
        if vbase & PAGE_MASK:
            raise SimulationError("pregion base %#x not page aligned" % vbase)
        self.region = region.hold()
        self.vbase = vbase
        self.prot = prot
        self.growth = growth
        #: growth ceiling in pages (0 means "no limit beyond overlap checks")
        self.max_pages = max_pages
        #: the PregionList currently holding this attachment (None if loose)
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Pregion %s @%#x..%#x>" % (
            self.region.rtype.value, self.vlow, self.vhigh,
        )

    # ------------------------------------------------------------------
    # address arithmetic

    @property
    def vlow(self) -> int:
        """Lowest mapped address (inclusive)."""
        return self.vbase

    @property
    def vhigh(self) -> int:
        """One past the highest mapped address."""
        return self.vbase + self.region.nbytes

    @property
    def rtype(self) -> RegionType:
        return self.region.rtype

    def contains(self, vaddr: int) -> bool:
        return self.vlow <= vaddr < self.vhigh

    def overlaps(self, vlow: int, vhigh: int) -> bool:
        return self.vlow < vhigh and vlow < self.vhigh

    def page_index(self, vaddr: int) -> int:
        """Index into the region's page table for ``vaddr``."""
        if not self.contains(vaddr):
            raise SimulationError("%#x outside %r" % (vaddr, self))
        return (vaddr - self.vbase) >> PAGE_SHIFT

    def vpn_of(self, index: int) -> int:
        """Virtual page number of region page ``index``."""
        return (self.vbase >> PAGE_SHIFT) + index

    @property
    def vpn_low(self) -> int:
        return self.vbase >> PAGE_SHIFT

    @property
    def vpn_high(self) -> int:
        return (self.vbase + self.region.nbytes) >> PAGE_SHIFT

    # ------------------------------------------------------------------
    # growth

    def can_grow_down_to(self, vaddr: int) -> bool:
        """May an access at ``vaddr`` auto-grow this downward stack?"""
        if self.growth is not Growth.DOWN:
            return False
        if vaddr >= self.vlow:
            return False
        wanted_pages = (self.vhigh - (vaddr & ~PAGE_MASK)) >> PAGE_SHIFT
        if self.max_pages and wanted_pages > self.max_pages:
            return False
        return True

    def grow_down_to(self, vaddr: int) -> int:
        """Grow so that ``vaddr`` is mapped; returns pages added."""
        if not self.can_grow_down_to(vaddr):
            raise SimulationError("cannot grow %r down to %#x" % (self, vaddr))
        new_base = vaddr & ~PAGE_MASK
        added = (self.vbase - new_base) >> PAGE_SHIFT
        self.region.grow_front(added)
        self.vbase = new_base
        if self.owner is not None:
            # the owning list's sorted view is keyed on the base address
            self.owner.invalidate()
        return added

    def can_grow_up(self, npages: int) -> bool:
        """May this upward-growing region add ``npages`` (sbrk)?"""
        if self.growth is not Growth.UP:
            return False
        return not self.max_pages or self.region.npages + npages <= self.max_pages

    def grow_up(self, npages: int) -> None:
        """Grow an upward-growing region (sbrk on the data segment)."""
        if not self.can_grow_up(npages):
            raise SimulationError("cannot grow %r up by %d pages" % (self, npages))
        self.region.grow(npages)

    def shrink(self, npages: int) -> None:
        """Shrink from the high end (negative sbrk)."""
        self.region.shrink(npages)

    def detach(self) -> None:
        """Drop this attachment's region reference."""
        self.region.release()

    def dup_cow(self) -> "Pregion":
        """A copy-on-write clone of this attachment, at the same place
        with the same protection and growth (fork, unshare)."""
        return Pregion(
            self.region.dup_cow(), self.vbase, self.prot,
            self.growth, self.max_pages,
        )


__all__ = [
    "Growth",
    "PAGE_SIZE",
    "PROT_EXEC",
    "PROT_READ",
    "PROT_RW",
    "PROT_RX",
    "PROT_WRITE",
    "Pregion",
]
