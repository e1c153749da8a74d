"""Sorted interval index over pregion lists: the VM translation fast path.

The paper's section 6.2 lookup — private pregions first, then shared —
was a linear scan on every TLB miss, every kernel-copy page and every
stack-growth probe.  :class:`PregionList` keeps the authoritative list
semantics (it *is* a list, so every existing ``append``/``remove``/``in``
call site keeps working) and adds a bisectable view sorted by ``vlow``.

The view is maintained incrementally: ``append`` bisect-inserts the new
member after every member with an equal start (exactly where a stable
sort of the list would put it), ``remove`` deletes that same object.
Only a member whose base address moved (downward stack growth) marks
the view stale, and the next query rebuilds it with one stable sort; a
list is also built lazily on its first query.  All mutators run under
the share group's update lock (or own the space outright), so a reader
under the read lock never observes a half-edited index.

Within one list the non-empty pregions never overlap (private may shadow
*shared*, but that is a cross-list affair resolved by private-first
lookup order), so a binary search on ``vlow`` has exactly one
containment candidate: the rightmost pregion starting at or below the
address.  The same disjointness lets :meth:`PregionList.overlapping`
answer the attach-time overlap check from the view instead of a scan.

Each pregion also records the list that currently holds it (``owner``),
which lets :meth:`AddressSpace.detach` drop it in a single pass instead
of probing every list with ``in`` first.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional

from repro.mem.pregion import Growth, Pregion


class PregionList(list):
    """A pregion list that owns a sorted interval index over itself.

    Lookups report how many comparisons they made so experiments can
    contrast bisect steps with the linear scan's entries-examined count
    (kstat ``pregion_scan_len``); the counting is host-side arithmetic
    and never charges simulated cycles.
    """

    __slots__ = ("_stale", "_starts", "_order", "_down_starts", "_down")

    def __init__(self, iterable=()):
        list.__init__(self, iterable)
        #: the sorted view must be rebuilt before its next use
        self._stale = True
        self._starts: List[int] = []
        self._order: List[Pregion] = []
        self._down_starts: List[int] = []
        self._down: List[Pregion] = []
        for pregion in self:
            pregion.owner = self

    # ------------------------------------------------------------------
    # mutation (the only ways kernel code edits a pregion list)

    def append(self, pregion: Pregion) -> None:
        list.append(self, pregion)
        pregion.owner = self
        if self._stale:
            return
        vbase = pregion.vbase
        pos = bisect_right(self._starts, vbase)
        self._starts.insert(pos, vbase)
        self._order.insert(pos, pregion)
        if pregion.growth is Growth.DOWN:
            pos = bisect_right(self._down_starts, vbase)
            self._down_starts.insert(pos, vbase)
            self._down.insert(pos, pregion)

    def remove(self, pregion: Pregion) -> None:
        list.remove(self, pregion)
        pregion.owner = None
        if self._stale:
            return
        self._unindex(self._starts, self._order, pregion)
        if pregion.growth is Growth.DOWN:
            self._unindex(self._down_starts, self._down, pregion)

    @staticmethod
    def _unindex(starts: List[int], order: List[Pregion], pregion: Pregion) -> None:
        pos = bisect_left(starts, pregion.vbase)
        while order[pos] is not pregion:
            pos += 1
        del starts[pos]
        del order[pos]

    def invalidate(self) -> None:
        """Force a rebuild (a member's base address moved)."""
        self._stale = True

    # ------------------------------------------------------------------
    # the index

    def _rebuild(self) -> None:
        order = sorted(self, key=_start)
        self._order = order
        self._starts = [pregion.vbase for pregion in order]
        down = [p for p in order if p.growth is Growth.DOWN]
        self._down = down
        self._down_starts = [pregion.vbase for pregion in down]
        self._stale = False

    @staticmethod
    def _bisect_right(starts: List[int], value: int):
        """Rightmost insertion point, returned with the comparison count."""
        lo, hi, steps = 0, len(starts), 0
        while lo < hi:
            steps += 1
            mid = (lo + hi) // 2
            if starts[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo, steps

    def lookup(self, vaddr: int):
        """The pregion containing ``vaddr`` (or None), plus bisect steps."""
        if self._stale:
            self._rebuild()
        pos, steps = self._bisect_right(self._starts, vaddr)
        if pos:
            candidate = self._order[pos - 1]
            steps += 1
            if candidate.contains(vaddr):
                return candidate, steps
        return None, steps

    def nearest_down_above(self, vaddr: int):
        """The DOWN-growing member with the smallest ``vlow > vaddr``.

        Returns ``(pregion_or_None, steps)`` — the stack-growth probe's
        replacement for scanning the whole list per SEGV check.
        """
        if self._stale:
            self._rebuild()
        pos, steps = self._bisect_right(self._down_starts, vaddr)
        if pos < len(self._down):
            return self._down[pos], steps + 1
        return None, steps

    def overlapping(self, vlow: int, vhigh: int) -> Optional[Pregion]:
        """A member that :meth:`Pregion.overlaps` ``[vlow, vhigh)``, or None.

        Walks left from the last member starting below ``vhigh``.  An
        empty member overlaps when it lies strictly inside the range, so
        the walk steps over empty members and stops at the first
        non-empty one ending at or below ``vlow``: the non-empty members
        of one list are pairwise disjoint, so everything further left
        ends below it.  Counts nothing — this is a check, not a lookup.
        """
        if self._stale:
            self._rebuild()
        order = self._order
        pos = bisect_left(self._starts, vhigh)
        while pos:
            pos -= 1
            pregion = order[pos]
            end = pregion.vhigh
            if end > vlow:
                return pregion
            if end != pregion.vbase:
                return None
        return None

    def index_errors(self) -> List[str]:
        """Ways the sorted view or the list's contents are incoherent.

        Empty when the view (unless stale, when the next query rebuilds
        it) and its ``Growth.DOWN`` sub-index equal a fresh stable sort
        by ``vlow``, and no two non-empty members overlap.
        """
        errors = []
        fresh = sorted(self, key=_start)
        if not self._stale:
            if self._order != fresh or self._starts != [p.vbase for p in fresh]:
                errors.append("sorted view differs from a fresh sort")
            down = [p for p in fresh if p.growth is Growth.DOWN]
            if (self._down != down
                    or self._down_starts != [p.vbase for p in down]):
                errors.append("DOWN sub-index differs from a fresh sort")
        reach: Optional[Pregion] = None
        for pregion in fresh:
            if pregion.vhigh == pregion.vbase:
                continue
            if reach is not None and reach.vhigh > pregion.vbase:
                errors.append("%r overlaps %r" % (reach, pregion))
            if reach is None or pregion.vhigh > reach.vhigh:
                reach = pregion
        return errors


def _start(pregion: Pregion) -> int:
    return pregion.vbase
