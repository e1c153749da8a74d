"""Address spaces: private and group-shared pregion lists.

Every process owns an :class:`AddressSpace`.  A standalone process keeps
all of its pregions on the private list.  When a process creates a share
group with ``PR_SADDR``, its sharable pregions move into a
:class:`SharedVM` that all VM-sharing members reference; each member's
private list then holds only what must stay per-process (the PRDA, and
debugger-private text if any).

Lookup order follows the paper (section 6.2): *"the private regions for a
process are examined first when demand paging ..., followed by
examination of the shared regions."*  This is what makes the private PRDA
shadow nothing and lets a future implementation mix copy-on-write and
shared pieces of one image.  :meth:`AddressSpace.find` bisects each
list's sorted view (:mod:`repro.mem.vmindex`); ``vm_index="linear"``
scans instead, E16's ablation.  The stack-growth probe runs only for an
address no pregion holds, so it is one private-first scan in both modes.

The address space itself is a passive data structure: methods here decide
*what* a fault means (:class:`Resolution`) and mutate page tables, while
the kernel's fault handler charges cycle costs and takes the share
group's shared read lock around these calls.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.mem import layout
from repro.mem.frames import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Frame
from repro.mem.pregion import Growth, Pregion, PROT_RW, PROT_WRITE
from repro.mem.region import Region, RegionType
from repro.mem.vmindex import PregionList


class Fault(enum.Enum):
    """What a virtual access needs from the fault handler."""

    HIT = "hit"  #: frame resident and access allowed
    ZERO = "zero"  #: demand-zero fill required
    COW = "cow"  #: copy-on-write break required
    GROW = "grow"  #: downward stack growth, then demand-zero
    SEGV = "segv"  #: no mapping / protection violation


class Resolution:
    """Outcome of resolving a virtual address against an address space."""

    __slots__ = ("kind", "pregion", "page_index", "shared")

    def __init__(
        self,
        kind: Fault,
        pregion: Optional[Pregion] = None,
        page_index: int = -1,
        shared: bool = False,
    ):
        self.kind = kind
        self.pregion = pregion
        self.page_index = page_index
        self.shared = shared

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Resolution %s %r>" % (self.kind.value, self.pregion)


def _copy_cursors(source, target) -> None:
    """Continue ``source``'s stack size and carving cursors in ``target``."""
    target._stack_max = source._stack_max
    target._next_stack_top = source._next_stack_top
    target._next_map_base = source._next_map_base


class SharedVM:
    """The VM image shared by a share group (the paper's ``s_region`` list).

    Holds the shared pregion list, the single address-space ID every
    VM-sharing member runs under, and the stack size and carving cursors
    the members' address spaces allocate from (each ``sproc`` child's
    stack, the map arena).  Concurrency control (the shared read lock)
    lives in the shared address block, not here.
    """

    def __init__(self, machine):
        self.machine = machine
        self.asid = machine.alloc_asid()
        self.pregions = PregionList()
        self._stack_max = layout.DEFAULT_STACK_MAX
        self._next_stack_top = layout.STACK_TOP
        self._next_map_base = layout.MAP_BASE

    def teardown(self) -> None:
        """Detach every shared pregion and retire the group's ASID
        everywhere (the last member left)."""
        for pregion in self.pregions:
            pregion.detach()
            pregion.owner = None
        self.pregions = PregionList()
        self.machine.tlb_flush_asid(self.asid)


class AddressSpace:
    """One process's view of virtual memory."""

    def __init__(self, machine, shared: Optional[SharedVM] = None):
        self.machine = machine
        self.frames = machine.frames
        self.shared = shared
        self._kernel_ks = machine.kstat.counters("kernel", 0)
        #: the E16 ablation, read once: linear scans instead of the index
        self._linear = machine.vm_index == "linear"
        #: the ASID allocated for this space itself (None if born shared)
        self._own_asid = machine.alloc_asid() if shared is None else None
        #: the ASID this space runs under: its group's while it shares one
        self.asid = shared.asid if shared is not None else self._own_asid
        self._private = PregionList()
        self._stack_max = layout.DEFAULT_STACK_MAX
        self._next_stack_top = layout.STACK_TOP
        self._next_map_base = layout.MAP_BASE

    @property
    def private(self) -> PregionList:
        return self._private

    @private.setter
    def private(self, value: List[Pregion]) -> None:
        # Group creation reassigns the whole list (``proc.vm.private =
        # keep``); re-wrap so owner backrefs follow the survivors.
        for pregion in self._private:
            if pregion.owner is self._private:
                pregion.owner = None
        self._private = PregionList(value)

    # ------------------------------------------------------------------
    # identity

    def join(self, shared: SharedVM) -> None:
        """Move onto a new group image and run under its ASID.

        The image continues this space's stack size and carving cursors.
        This space's own translations are orphaned, so its ASID is
        retired everywhere (the model of ASID recycling).
        """
        _copy_cursors(self, shared)
        self.machine.tlb_flush_asid(self.asid)
        self.shared = shared
        self.asid = shared.asid

    # ------------------------------------------------------------------
    # pregion lists

    def iter_pregions(self) -> Iterator[Tuple[Pregion, bool]]:
        """All visible pregions, private first (paper's lookup order)."""
        for pregion in self.private:
            yield pregion, False
        if self.shared is not None:
            for pregion in self.shared.pregions:
                yield pregion, True

    def find(self, vaddr: int) -> Tuple[Optional[Pregion], bool]:
        if self._linear:
            return self._find_linear(vaddr)
        return self._find_indexed(vaddr)

    def _find_linear(self, vaddr: int) -> Tuple[Optional[Pregion], bool]:
        """The original O(n) scan, kept as the ``vm_index="linear"`` ablation."""
        examined = 0
        for pregion, shared in self.iter_pregions():
            examined += 1
            if pregion.contains(vaddr):
                self._note_lookup(examined, hit=True, indexed=False)
                return pregion, shared
        self._note_lookup(examined, hit=False, indexed=False)
        return None, False

    def _find_indexed(self, vaddr: int) -> Tuple[Optional[Pregion], bool]:
        """Bisect private then shared (no private pregion overlaps a
        shared one, so the order decides nothing but the step count)."""
        pregion, steps = self._private.lookup(vaddr)
        if pregion is not None:
            self._note_lookup(steps, hit=True, indexed=True)
            return pregion, False
        if self.shared is not None:
            shared_hit, shared_steps = self.shared.pregions.lookup(vaddr)
            steps += shared_steps
            if shared_hit is not None:
                self._note_lookup(steps, hit=True, indexed=True)
                return shared_hit, True
        self._note_lookup(steps, hit=False, indexed=True)
        return None, False

    def _note_lookup(self, steps: int, hit: bool, indexed: bool) -> None:
        # Host-side accounting only: charges zero simulated cycles, so
        # metrics on/off cannot perturb the timeline.
        ks = self._kernel_ks
        ks["vm_lookups"] += 1
        ks["pregion_scan_len"] += steps
        if indexed and hit:
            ks["vm_index_hits"] += 1

    def find_by_type(self, rtype: RegionType) -> Tuple[Optional[Pregion], bool]:
        for pregion, shared in self.iter_pregions():
            if pregion.rtype is rtype:
                return pregion, shared
        return None, False

    def check_overlap(self, vlow: int, vhigh: int) -> None:
        """Refuse a mapping that overlaps any visible pregion.

        Asks each list's sorted view (in both ``vm_index`` modes: the
        check counts nothing, so the ablation's timeline is unchanged).
        """
        existing = self._private.overlapping(vlow, vhigh)
        if existing is None and self.shared is not None:
            existing = self.shared.pregions.overlapping(vlow, vhigh)
        if existing is not None:
            raise SimulationError(
                "mapping %#x..%#x overlaps %r" % (vlow, vhigh, existing)
            )

    def attach_private(self, pregion: Pregion) -> Pregion:
        """Attach to the private list; no visible pregion may overlap."""
        self.check_overlap(pregion.vlow, pregion.vhigh)
        self.private.append(pregion)
        return pregion

    def attach_shared(self, pregion: Pregion) -> Pregion:
        if self.shared is None:
            raise SimulationError("no shared VM to attach to")
        self.check_overlap(pregion.vlow, pregion.vhigh)
        self.shared.pregions.append(pregion)
        return pregion

    def detach(self, pregion: Pregion) -> None:
        """Remove a pregion from whichever list holds it.

        One pass: the pregion's ``owner`` backref says which list holds
        it, so no ``in``-scans are needed before the remove.
        """
        owner = pregion.owner
        shared_list = self.shared.pregions if self.shared is not None else None
        if owner is not self._private and (
            shared_list is None or owner is not shared_list
        ):
            raise SimulationError("detach of unattached %r" % pregion)
        owner.remove(pregion)
        pregion.detach()

    # ------------------------------------------------------------------
    # fault resolution

    def resolve(self, vaddr: int, write: bool) -> Resolution:
        """Classify an access.  Pure decision — no page tables change."""
        if not 0 <= vaddr < layout.USER_LIMIT:
            return Resolution(Fault.SEGV)
        pregion, shared = self.find(vaddr)
        if pregion is None:
            grow_target = self._growable_stack(vaddr)
            if grow_target is not None:
                target, target_shared = grow_target
                return Resolution(Fault.GROW, target, -1, target_shared)
            return Resolution(Fault.SEGV)
        if write and not pregion.prot & PROT_WRITE:
            return Resolution(Fault.SEGV, pregion, -1, shared)
        index = pregion.page_index(vaddr)
        region = pregion.region
        if region.pages[index] is None:
            return Resolution(Fault.ZERO, pregion, index, shared)
        if write and region.is_cow(index):
            return Resolution(Fault.COW, pregion, index, shared)
        return Resolution(Fault.HIT, pregion, index, shared)

    def _growable_stack(self, vaddr: int) -> Optional[Tuple[Pregion, bool]]:
        """Find a downward-growing pregion that may absorb ``vaddr``.

        The candidate must be the nearest DOWN-growing pregion above the
        address, and the gap must be within its growth ceiling.  One
        scan, private first, so a private candidate wins a tie: only an
        address no pregion holds is probed, which is rare.
        """
        best: Optional[Tuple[Pregion, bool]] = None
        for pregion, shared in self.iter_pregions():
            if pregion.growth is not Growth.DOWN or pregion.vlow <= vaddr:
                continue
            if best is None or pregion.vlow < best[0].vlow:
                best = (pregion, shared)
        if best is not None and best[0].can_grow_down_to(vaddr):
            return best
        return None

    # ------------------------------------------------------------------
    # fault actions (called by the kernel fault handler, under locks)

    def materialize(self, resolution: Resolution, vaddr: int, write: bool) -> Frame:
        """Perform the page-table mutation a resolution calls for."""
        kind = resolution.kind
        if kind is Fault.GROW:
            # the resolution now names the page the growth mapped
            resolution.pregion.grow_down_to(vaddr)
            index = resolution.page_index = resolution.pregion.page_index(vaddr)
            return resolution.pregion.region.ensure_page(index)
        if kind is Fault.ZERO:
            return resolution.pregion.region.ensure_page(resolution.page_index)
        if kind is Fault.COW:
            frame = resolution.pregion.region.break_cow(resolution.page_index)
            # Other CPUs may cache the old translation.
            vpn = resolution.pregion.vpn_of(resolution.page_index)
            self.machine.tlb_flush_page(self.asid, vpn)
            return frame
        if kind is Fault.HIT:
            return resolution.pregion.region.pages[resolution.page_index]
        raise SimulationError("cannot materialize %r" % resolution)

    def writable_now(self, pregion: Pregion, index: int) -> bool:
        """May a TLB entry for this page be writable?"""
        if not pregion.prot & PROT_WRITE:
            return False
        return not pregion.region.is_cow(index)

    # ------------------------------------------------------------------
    # segment setup helpers

    def map_segment(
        self,
        vbase: int,
        nbytes: int,
        rtype: RegionType,
        prot: int,
        growth: Growth = Growth.NONE,
        max_pages: int = 0,
        shared: bool = False,
    ) -> Pregion:
        """Create a fresh region and attach it at ``vbase``."""
        npages = (nbytes + PAGE_MASK) >> PAGE_SHIFT
        region = Region(self.frames, npages, rtype)
        pregion = Pregion(region, vbase, prot, growth, max_pages)
        if shared:
            return self.attach_shared(pregion)
        return self.attach_private(pregion)

    @property
    def _cursors(self):
        """Who keeps the stack size and the carving cursors: the group's
        image while this space shares one, else this space."""
        return self.shared if self.shared is not None else self

    @property
    def stack_max(self) -> int:
        """The reservation of each stack carved from now on
        (``PR_SETSTACKSIZE``); group-wide while this space shares an
        image."""
        return self._cursors._stack_max

    @stack_max.setter
    def stack_max(self, value: int) -> None:
        self._cursors._stack_max = value

    def alloc_map_range(self, nbytes: int) -> int:
        """Bump-allocate a page-aligned window in the mapping arena."""
        cursors = self._cursors
        nbytes = (nbytes + PAGE_MASK) & ~PAGE_MASK
        base = cursors._next_map_base
        if base + nbytes > layout.MAP_LIMIT:
            raise MemoryError("mapping arena exhausted")
        cursors._next_map_base = base + nbytes
        return base

    def next_stack_fits(self) -> bool:
        """Does the next stack's reservation stay above the map arena?
        Stacks carve downward from ``STACK_TOP``, so a large
        ``PR_SETSTACKSIZE`` runs out of room early."""
        cursors = self._cursors
        return cursors._next_stack_top - cursors._stack_max >= layout.MAP_LIMIT

    def carve_stack(self, shared: bool) -> Pregion:
        """Reserve and attach a new downward-growing stack.

        Its reservation ends at the stack cursor, which then moves down
        past it and a guard gap, so a stack size changed between two
        carves never overlaps an earlier reservation.
        """
        cursors = self._cursors
        max_bytes = cursors._stack_max
        top = cursors._next_stack_top
        cursors._next_stack_top = top - max_bytes - layout.STACK_GAP
        initial = layout.INITIAL_STACK_PAGES * PAGE_SIZE
        vbase = top - initial
        return self.map_segment(
            vbase,
            initial,
            RegionType.STACK,
            PROT_RW,
            growth=Growth.DOWN,
            max_pages=max_bytes >> PAGE_SHIFT,
            shared=shared,
        )

    # ------------------------------------------------------------------
    # duplication and teardown

    def empty_copy(self) -> "AddressSpace":
        """A fresh standalone space, with no pregions yet, that continues
        this space's stack size and carving cursors (its group's, if it
        shares one)."""
        child = AddressSpace(self.machine)
        _copy_cursors(self._cursors, child)
        return child

    def dup_cow(self) -> "AddressSpace":
        """Fork-style duplicate: every visible pregion, private then
        shared, becomes a private copy-on-write attachment in the child.

        Matches the paper: a ``fork()`` (or non-VM-sharing ``sproc()``)
        from a share group member *"leaves any visible stack or other
        regions from the share group as copy-on-write elements of the new
        process"*.  The caller must flush the parent's TLB afterwards
        because resident pages became read-only-COW on the parent side
        too.
        """
        child = self.empty_copy()
        for visible, _shared in self.iter_pregions():
            child.private.append(visible.dup_cow())
        return child

    def teardown(self) -> None:
        """Detach every private pregion (exit, exec, an unwind).

        A standalone space also retires its ASID everywhere: the model
        of the flush a real kernel makes when it recycles an ASID,
        charged nowhere because it happens off the measured paths.
        """
        for pregion in self.private:
            pregion.detach()
        self.private = []
        if self.shared is None:
            self.machine.tlb_flush_asid(self.asid)


def make_region(allocator, nbytes: int, rtype: RegionType) -> Region:
    """Convenience constructor used by loaders and tests."""
    npages = (nbytes + PAGE_MASK) >> PAGE_SHIFT
    return Region(allocator, npages, rtype)
