"""Unit and property tests for regions (page tables, COW, grow/shrink)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.mem.frames import FrameAllocator
from repro.mem.region import Region, RegionType


def make(npages=4, nframes=64):
    alloc = FrameAllocator(nframes)
    return alloc, Region(alloc, npages, RegionType.DATA)


def test_pages_start_nonresident():
    _, region = make()
    assert region.resident_pages() == 0
    assert region.npages == 4


def test_ensure_page_is_idempotent():
    _, region = make()
    frame1 = region.ensure_page(0)
    frame2 = region.ensure_page(0)
    assert frame1 is frame2
    assert region.resident_pages() == 1


def test_release_frees_frames():
    alloc, region = make()
    region.hold()
    region.ensure_page(0)
    region.ensure_page(3)
    region.release()
    assert alloc.allocated == 0
    assert region.freed


def test_release_without_hold_is_error():
    _, region = make()
    with pytest.raises(SimulationError):
        region.release()


def test_dup_cow_shares_frames_and_marks_both_sides():
    alloc, region = make()
    frame = region.ensure_page(1)
    frame.data[0] = 0xAB
    clone = region.dup_cow()
    assert clone.pages[1] is frame
    assert frame.refcount == 2
    assert region.is_cow(1)
    assert clone.is_cow(1)
    # non-resident pages stay non-resident in the clone
    assert clone.pages[0] is None


def test_break_cow_copies_when_shared():
    alloc, region = make()
    frame = region.ensure_page(1)
    frame.data[:4] = b"\x01\x02\x03\x04"
    clone = region.dup_cow()
    fresh = clone.break_cow(1)
    assert fresh is not frame
    assert bytes(fresh.data[:4]) == b"\x01\x02\x03\x04"
    assert frame.refcount == 1
    assert not clone.is_cow(1)
    # writes to the copy do not touch the original
    fresh.data[0] = 0xFF
    assert frame.data[0] == 0x01


def test_break_cow_takes_ownership_when_last_ref():
    alloc, region = make()
    frame = region.ensure_page(2)
    clone = region.dup_cow()
    clone.hold()
    clone.release()  # free the clone, dropping its frame refs
    kept = region.break_cow(2)
    assert kept is frame, "sole owner should not copy"
    assert not region.is_cow(2)


def test_grow_and_shrink():
    alloc, region = make(npages=2)
    region.grow(3)
    assert region.npages == 5
    region.ensure_page(4)
    region.shrink(2)
    assert region.npages == 3
    assert alloc.allocated == 0  # page 4's frame was freed


def test_shrink_below_zero_is_error():
    _, region = make(npages=2)
    with pytest.raises(SimulationError):
        region.shrink(3)


def test_grow_front_preserves_contents():
    _, region = make(npages=2)
    frame = region.ensure_page(0)
    frame.data[0] = 0x42
    region.grow_front(2)
    assert region.npages == 4
    assert region.pages[2] is frame
    assert region.pages[0] is None


@given(st.lists(st.sampled_from(["grow", "shrink", "touch"]), max_size=60))
def test_grow_shrink_touch_frame_accounting(ops):
    """Property: allocator count always equals resident page count."""
    alloc = FrameAllocator(256)
    region = Region(alloc, 1, RegionType.DATA)
    region.hold()
    touched = 0
    for op in ops:
        if op == "grow":
            region.grow(1)
        elif op == "shrink" and region.npages > 0:
            region.shrink(1)
        elif op == "touch" and region.npages > 0:
            region.ensure_page(region.npages - 1)
        assert alloc.allocated == region.resident_pages()
    region.release()
    assert alloc.allocated == 0
