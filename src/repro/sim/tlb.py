"""Software-managed translation lookaside buffer.

The paper's target processor is the MIPS R2000, whose TLB is refilled by
software and can be flushed under kernel control.  Share groups exploit
this (section 6.2): before shrinking or detaching a shared region the
kernel *synchronously* flushes the TLBs of all processors, so any running
group member immediately takes a TLB-miss trap and blocks on the shared
read lock until the update is complete.

Entries are keyed by ``(asid, vpn)``.  All members of a share group run
with the same address-space ID, so switching between members leaves their
shared translations warm — one of the quiet wins of the design.

Per-ASID flushes used to scan every resident entry.  The TLB now keeps a
secondary index grouping entries by ASID so ``flush_asid``/``flush_range``
touch only the victim space's entries; the old full scan survives as the
``vm_index="linear"`` ablation (``asid_index=False``).  How many entries
each flush examined is reported through the per-CPU kstat counter
``tlb_asid_flush_scanned`` — host-side accounting that charges no cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple


class TLBEntry:
    """One cached translation.  It holds the :class:`~repro.mem.frames.Frame`
    itself, so a hit needs no pfn lookup; ``pfn`` is read off the frame."""

    __slots__ = ("asid", "vpn", "frame", "writable")

    def __init__(self, asid: int, vpn: int, frame, writable: bool):
        self.asid = asid
        self.vpn = vpn
        self.frame = frame
        self.writable = writable

    @property
    def pfn(self) -> int:
        return self.frame.pfn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "rw" if self.writable else "ro"
        return "<TLBEntry asid=%d vpn=%#x pfn=%d %s>" % (self.asid, self.vpn, self.pfn, mode)


class TLB:
    """A fixed-capacity, FIFO-replacement, software-refilled TLB.

    The R2000 replaces entries via a hardware random register; we use FIFO
    so simulations are deterministic.  Statistics are kept so experiments
    can report hit rates and shootdown counts.
    """

    __slots__ = (
        "capacity", "_entries", "_by_asid", "_kstat", "_cpu_idx",
        "hits", "misses", "flushes", "flush_pages", "shootdowns",
    )

    def __init__(
        self,
        capacity: int = 64,
        kstat=None,
        cpu_idx: int = 0,
        asid_index: bool = True,
    ):
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], TLBEntry]" = OrderedDict()
        #: secondary index: asid -> {vpn: entry}; None in the linear ablation
        self._by_asid: Optional[Dict[int, Dict[int, TLBEntry]]] = (
            {} if asid_index else None
        )
        self._kstat = kstat
        self._cpu_idx = cpu_idx
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.flush_pages = 0
        self.shootdowns = 0

    def _scanned(self, n: int) -> None:
        """Record how many entries a per-ASID flush examined."""
        if self._kstat is not None:
            self._kstat.add("cpu", self._cpu_idx, "tlb_asid_flush_scanned", n)

    def _index_drop(self, asid: int, vpn: int) -> None:
        if self._by_asid is None:
            return
        bucket = self._by_asid.get(asid)
        if bucket is not None:
            bucket.pop(vpn, None)
            if not bucket:
                del self._by_asid[asid]

    # ------------------------------------------------------------------
    # lookup / refill

    def probe(self, asid: int, vpn: int) -> Optional[TLBEntry]:
        """Look up without touching statistics (for assertions/tests).

        The live probe is the kernel's ``vm_hit``: it reads the entry
        table directly and counts :attr:`hits` and :attr:`misses`.
        """
        return self._entries.get((asid, vpn))

    def insert(self, asid: int, vpn: int, frame, writable: bool) -> TLBEntry:
        """Install a translation to ``frame``, evicting the oldest entry
        if full."""
        key = (asid, vpn)
        if key in self._entries:
            del self._entries[key]
            self._index_drop(asid, vpn)
        elif len(self._entries) >= self.capacity:
            old_key, _old = self._entries.popitem(last=False)
            self._index_drop(old_key[0], old_key[1])
        entry = TLBEntry(asid, vpn, frame, writable)
        self._entries[key] = entry
        if self._by_asid is not None:
            self._by_asid.setdefault(asid, {})[vpn] = entry
        return entry

    # ------------------------------------------------------------------
    # invalidation

    def flush_all(self) -> None:
        """Drop every translation (global flush)."""
        self._entries.clear()
        if self._by_asid is not None:
            self._by_asid.clear()
        self.flushes += 1

    def flush_asid(self, asid: int) -> None:
        """Drop all translations for one address space."""
        if self._by_asid is not None:
            bucket = self._by_asid.pop(asid, None)
            if bucket is not None:
                self._scanned(len(bucket))
                for vpn in bucket:
                    del self._entries[(asid, vpn)]
            else:
                self._scanned(0)
        else:
            self._scanned(len(self._entries))
            stale = [key for key in self._entries if key[0] == asid]
            for key in stale:
                del self._entries[key]
        self.flushes += 1

    def flush_page(self, asid: int, vpn: int) -> None:
        """Drop a single translation if present."""
        dropped = self._entries.pop((asid, vpn), None)
        if dropped is not None:
            self._index_drop(asid, vpn)
            self.flush_pages += 1
        self.flushes += 1

    def discard(self, asid: int, vpn: int) -> None:
        """Drop one translation without counting a flush.

        Models the R2000 reloading its wired PRDA entry at a context
        switch: part of the switch, not a flush, so no statistic moves.
        """
        if self._entries.pop((asid, vpn), None) is not None:
            self._index_drop(asid, vpn)

    def flush_range(self, asid: int, vpn_lo: int, vpn_hi: int) -> None:
        """Drop translations for ``vpn_lo <= vpn < vpn_hi`` in one space."""
        if self._by_asid is not None:
            bucket = self._by_asid.get(asid)
            if bucket is None:
                self._scanned(0)
            else:
                self._scanned(len(bucket))
                stale_vpns = [
                    vpn for vpn in bucket if vpn_lo <= vpn < vpn_hi
                ]
                for vpn in stale_vpns:
                    del bucket[vpn]
                    del self._entries[(asid, vpn)]
                    self.flush_pages += 1
                if not bucket:
                    del self._by_asid[asid]
        else:
            self._scanned(len(self._entries))
            stale = [
                key for key in self._entries
                if key[0] == asid and vpn_lo <= key[1] < vpn_hi
            ]
            for key in stale:
                del self._entries[key]
                self.flush_pages += 1
        self.flushes += 1

    # ------------------------------------------------------------------
    # introspection

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        """Snapshot of live entries (for invariant checks in tests)."""
        return list(self._entries.values())

    def index_errors(self):
        """Ways the per-ASID index disagrees with ``_entries`` (invariant).

        Empty when coherent — and always empty in the linear ablation,
        which has no index to disagree.
        """
        if self._by_asid is None:
            return []
        errors = []
        indexed = {
            (asid, vpn)
            for asid, bucket in self._by_asid.items()
            for vpn in bucket
        }
        primary = set(self._entries)
        for key in sorted(primary - indexed):
            errors.append("entry %r missing from ASID index" % (key,))
        for key in sorted(indexed - primary):
            errors.append("stale ASID index entry %r" % (key,))
        for asid, bucket in self._by_asid.items():
            if not bucket:
                errors.append("empty bucket left for asid %d" % asid)
            for vpn, entry in bucket.items():
                if self._entries.get((asid, vpn)) is not entry:
                    errors.append(
                        "index object mismatch for %r" % ((asid, vpn),)
                    )
        return errors

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
