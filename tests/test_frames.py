"""Unit and property tests for the physical frame allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.mem.frames import PAGE_SIZE, FrameAllocator, page_round_up, pages_for


def test_alloc_returns_zeroed_frame_with_one_ref():
    alloc = FrameAllocator(4)
    frame = alloc.alloc()
    assert frame.refcount == 1
    assert bytes(frame.data) == b"\x00" * PAGE_SIZE
    assert alloc.allocated == 1


def test_exhaustion_raises_memory_error():
    alloc = FrameAllocator(2)
    alloc.alloc()
    alloc.alloc()
    with pytest.raises(MemoryError):
        alloc.alloc()


def test_release_returns_frame_to_pool():
    alloc = FrameAllocator(1)
    frame = alloc.alloc()
    alloc.release(frame)
    assert alloc.allocated == 0
    again = alloc.alloc()
    assert again.refcount == 1


def test_hold_release_refcounting():
    alloc = FrameAllocator(2)
    frame = alloc.alloc()
    alloc.hold(frame)
    assert frame.refcount == 2
    alloc.release(frame)
    assert alloc.allocated == 1
    alloc.release(frame)
    assert alloc.allocated == 0


def test_double_free_is_caught():
    alloc = FrameAllocator(2)
    frame = alloc.alloc()
    alloc.release(frame)
    with pytest.raises(SimulationError):
        alloc.release(frame)


def test_peak_tracks_high_water_mark():
    alloc = FrameAllocator(8)
    frames = [alloc.alloc() for _ in range(5)]
    for frame in frames:
        alloc.release(frame)
    assert alloc.peak == 5
    assert alloc.allocated == 0


def test_page_round_up_and_pages_for():
    assert page_round_up(0) == 0
    assert page_round_up(1) == PAGE_SIZE
    assert page_round_up(PAGE_SIZE) == PAGE_SIZE
    assert pages_for(0) == 0
    assert pages_for(1) == 1
    assert pages_for(PAGE_SIZE + 1) == 2


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_alloc_release_never_leaks_or_double_counts(ops):
    """Property: after any alloc/release sequence, counters agree."""
    alloc = FrameAllocator(64)
    live = []
    for do_alloc in ops:
        if do_alloc and alloc.free_count:
            live.append(alloc.alloc())
        elif live:
            alloc.release(live.pop())
    assert alloc.allocated == len(live)
    assert alloc.free_count == 64 - len(live)
    pfns = [frame.pfn for frame in live]
    assert len(set(pfns)) == len(pfns), "duplicate frames handed out"
