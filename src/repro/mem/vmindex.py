"""Sorted interval index over pregion lists: the VM translation fast path.

The paper's section 6.2 lookup — private pregions first, then shared —
was a linear scan on every TLB miss, every kernel-copy page and every
stack-growth probe.  :class:`PregionList` keeps the authoritative list
semantics (it *is* a list, so every existing ``append``/``remove``/``in``
call site keeps working) and adds a bisectable view sorted by ``vlow``.

Coherence follows a generation protocol rather than incremental index
maintenance: every mutation that can change lookup results — attach,
detach, growth that moves a base address — bumps ``generation``, and the
next lookup rebuilds the sorted view when it notices the mismatch.  All
mutators run under the share group's update lock (or own the space
outright), so a reader under the read lock never observes a half-built
index.  Faults vastly outnumber list edits, which makes the occasional
O(n log n) rebuild a good trade for O(log n) lookups.

Within one list pregions never overlap (private may shadow *shared*, but
that is a cross-list affair resolved by private-first lookup order), so
a binary search on ``vlow`` has exactly one containment candidate: the
rightmost pregion starting at or below the address.

Each pregion also records the list that currently holds it (``owner``),
which lets :meth:`AddressSpace.detach` drop it in a single pass instead
of probing every list with ``in`` first.
"""

from __future__ import annotations

from typing import List

from repro.mem.pregion import Growth, Pregion


class PregionList(list):
    """A pregion list that owns a sorted interval index over itself.

    Lookups report how many comparisons they made so experiments can
    contrast bisect steps with the linear scan's entries-examined count
    (kstat ``pregion_scan_len``); the counting is host-side arithmetic
    and never charges simulated cycles.
    """

    __slots__ = ("generation", "_built", "_starts", "_order",
                 "_down_starts", "_down")

    def __init__(self, iterable=()):
        list.__init__(self, iterable)
        #: bumped by every mutation; lookups rebuild when it moves
        self.generation = 0
        self._built = -1
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
        self.generation += 1

    def remove(self, pregion: Pregion) -> None:
        list.remove(self, pregion)
        pregion.owner = None
        self.generation += 1

    def invalidate(self) -> None:
        """Force a rebuild (a member's base address moved)."""
        self.generation += 1

    # ------------------------------------------------------------------
    # the index

    def _rebuild(self) -> None:
        order = sorted(self, key=lambda pregion: pregion.vlow)
        self._order = order
        self._starts = [pregion.vlow for pregion in order]
        down = [p for p in order if p.growth is Growth.DOWN]
        self._down = down
        self._down_starts = [pregion.vlow for pregion in down]
        self._built = self.generation

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
        if self._built != self.generation:
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
        if self._built != self.generation:
            self._rebuild()
        pos, steps = self._bisect_right(self._down_starts, vaddr)
        if pos < len(self._down):
            return self._down[pos], steps + 1
        return None, steps
