"""Unit tests for the software-managed TLB."""

from repro.mem.frames import Frame
from repro.obs.kstat import KstatRegistry
from repro.sim.tlb import TLB


def test_miss_then_hit():
    tlb = TLB(4)
    assert tlb.probe(1, 0x100) is None
    frame = Frame(7)
    tlb.insert(1, 0x100, frame, writable=True)
    entry = tlb.probe(1, 0x100)
    assert entry is not None
    assert entry.frame is frame
    assert entry.pfn == 7
    assert entry.writable
    assert tlb.hits == tlb.misses == 0, "probe leaves the statistics alone"


def test_asid_keys_are_distinct():
    tlb = TLB(4)
    tlb.insert(1, 0x100, 7, writable=True)
    assert tlb.probe(2, 0x100) is None


def test_fifo_eviction_at_capacity():
    tlb = TLB(2)
    tlb.insert(1, 0x1, 10, True)
    tlb.insert(1, 0x2, 11, True)
    tlb.insert(1, 0x3, 12, True)  # evicts vpn 0x1
    assert tlb.probe(1, 0x1) is None
    assert tlb.probe(1, 0x2) is not None
    assert tlb.probe(1, 0x3) is not None
    assert len(tlb) == 2


def test_reinsert_updates_in_place():
    tlb = TLB(2)
    tlb.insert(1, 0x1, Frame(10), True)
    tlb.insert(1, 0x1, Frame(20), False)
    assert len(tlb) == 1
    entry = tlb.probe(1, 0x1)
    assert entry.pfn == 20
    assert not entry.writable


def test_flush_asid_is_selective():
    tlb = TLB(8)
    tlb.insert(1, 0x1, 1, True)
    tlb.insert(1, 0x2, 2, True)
    tlb.insert(2, 0x3, 3, True)
    tlb.flush_asid(1)
    assert tlb.probe(1, 0x1) is None
    assert tlb.probe(1, 0x2) is None
    assert tlb.probe(2, 0x3) is not None


def test_flush_page_and_range():
    tlb = TLB(8)
    for vpn in range(4):
        tlb.insert(1, vpn, vpn + 10, True)
    tlb.flush_page(1, 2)
    assert tlb.probe(1, 2) is None
    tlb.flush_range(1, 0, 2)
    assert tlb.probe(1, 0) is None
    assert tlb.probe(1, 1) is None
    assert tlb.probe(1, 3) is not None


def test_flush_range_counts_like_its_siblings():
    # regression: flush_range used to skip the flushes counter, so
    # region-shrink shootdowns undercounted in System.metrics()
    tlb = TLB(8)
    for vpn in range(4):
        tlb.insert(1, vpn, vpn + 10, True)
    tlb.flush_range(1, 0, 2)
    assert tlb.flushes == 1
    tlb.flush_range(1, 100, 200)  # empty range still counts as a flush op
    assert tlb.flushes == 2
    tlb.flush_asid(1)
    assert tlb.flushes == 3


def test_hit_rate():
    tlb = TLB(8)
    assert tlb.hit_rate == 0.0
    tlb.hits, tlb.misses = 1, 1  # the kernel's vm_hit counts both
    assert tlb.hit_rate == 0.5


def test_flush_page_counts_like_its_siblings():
    # regression: flush_page used to skip the flushes counter entirely,
    # so COW-break invalidations were invisible in the flush accounting
    tlb = TLB(8)
    tlb.insert(1, 0x1, 1, True)
    tlb.flush_page(1, 0x1)
    assert tlb.flushes == 1
    tlb.flush_page(1, 0x99)  # a miss is still a flush operation
    assert tlb.flushes == 2


def test_flush_pages_counts_entries_dropped():
    # flush_pages is page-granular: entries actually removed by
    # flush_page/flush_range, so E16 can contrast targeted invalidation
    # with full-ASID sweeps (which never touch this counter)
    tlb = TLB(8)
    for vpn in range(4):
        tlb.insert(1, vpn, vpn + 10, True)
    tlb.flush_page(1, 2)
    assert tlb.flush_pages == 1
    tlb.flush_page(1, 2)  # already gone: no page dropped
    assert tlb.flush_pages == 1
    tlb.flush_range(1, 0, 2)
    assert tlb.flush_pages == 3
    tlb.flush_asid(1)  # full-ASID sweeps are not page-granular
    assert tlb.flush_pages == 3


def _assert_index_clean(tlb):
    errors = tlb.index_errors()
    assert errors == [], errors


def test_asid_index_matches_entries_under_mixed_traffic():
    import random

    for linear in (False, True):  # the ablation keeps the index too
        rng = random.Random(42)
        tlb = TLB(8, linear=linear)
        for step in range(600):
            op = rng.randrange(6)
            asid = rng.randrange(1, 5)
            vpn = rng.randrange(16)
            if op in (0, 1, 2):  # inserts dominate, forcing evictions
                tlb.insert(asid, vpn, rng.randrange(100), bool(rng.randrange(2)))
            elif op == 3:
                tlb.flush_page(asid, vpn)
            elif op == 4:
                tlb.flush_asid(asid)
            else:
                lo = rng.randrange(16)
                tlb.flush_range(asid, lo, lo + rng.randrange(1, 8))
            _assert_index_clean(tlb)
        for asid in range(1, 5):
            tlb.flush_asid(asid)
        _assert_index_clean(tlb)
        assert len(tlb) == 0


def test_linear_ablation_flush_scans_every_entry():
    """The ablation's ``flush_asid`` examines every resident entry where
    the index examines only the victim's, and both leave the index
    clean."""
    scanned = {}
    for linear in (False, True):
        kstat = KstatRegistry()
        tlb = TLB(8, kstat=kstat, linear=linear)
        tlb.insert(1, 0x1, 1, True)
        tlb.insert(2, 0x2, 2, True)
        tlb.insert(1, 0x3, 3, True)
        tlb.flush_asid(1)
        _assert_index_clean(tlb)
        assert tlb.probe(1, 0x1) is None and tlb.probe(1, 0x3) is None
        assert tlb.probe(2, 0x2) is not None
        tlb.flush_asid(3)  # nothing resident under it
        scanned[linear] = kstat.get("cpu", 0, "tlb_asid_flush_scanned")
    assert scanned == {False: 2, True: 4}


def test_indexed_and_linear_tlbs_behave_identically():
    import random

    rng = random.Random(7)
    fast = TLB(6)
    slow = TLB(6, linear=True)
    for _ in range(400):
        op = rng.randrange(6)
        asid = rng.randrange(1, 4)
        vpn = rng.randrange(12)
        for tlb in (fast, slow):
            if op in (0, 1, 2):
                tlb.insert(asid, vpn, vpn + 50, True)
            elif op == 3:
                tlb.flush_page(asid, vpn)
            elif op == 4:
                tlb.flush_asid(asid)
            else:
                tlb.flush_range(asid, vpn, vpn + 4)
        assert len(fast) == len(slow)
        assert fast.flushes == slow.flushes
        assert fast.flush_pages == slow.flush_pages
        for a in range(1, 4):
            for v in range(12):
                lhs, rhs = fast.probe(a, v), slow.probe(a, v)
                assert (lhs is None) == (rhs is None)
