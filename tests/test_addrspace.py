"""Unit tests for address spaces: resolution, COW duplication, stacks."""

import pytest

from repro.errors import SimulationError
from repro.mem import layout
from repro.mem.addrspace import AddressSpace, Fault, SharedVM
from repro.mem.frames import PAGE_SIZE
from repro.mem.pregion import PROT_READ, PROT_RW
from repro.mem.region import RegionType
from repro.sim.machine import Machine


@pytest.fixture
def machine():
    return Machine(ncpus=2, memory_bytes=8 * 1024 * 1024)


def make_space(machine, shared=None):
    return AddressSpace(machine, shared)


def test_unmapped_address_is_segv(machine):
    space = make_space(machine)
    assert space.resolve(0x1234_0000, write=False).kind is Fault.SEGV


def test_demand_zero_then_hit(machine):
    space = make_space(machine)
    space.map_segment(layout.DATA_BASE, 2 * PAGE_SIZE, RegionType.DATA, PROT_RW)
    res = space.resolve(layout.DATA_BASE, write=False)
    assert res.kind is Fault.ZERO
    space.materialize(res, layout.DATA_BASE, write=False)
    assert space.resolve(layout.DATA_BASE, write=False).kind is Fault.HIT


def test_write_to_readonly_is_segv(machine):
    space = make_space(machine)
    space.map_segment(layout.TEXT_BASE, PAGE_SIZE, RegionType.TEXT, PROT_READ)
    assert space.resolve(layout.TEXT_BASE, write=True).kind is Fault.SEGV


def test_overlapping_attach_rejected(machine):
    space = make_space(machine)
    space.map_segment(layout.DATA_BASE, 2 * PAGE_SIZE, RegionType.DATA, PROT_RW)
    with pytest.raises(SimulationError):
        space.map_segment(
            layout.DATA_BASE + PAGE_SIZE, PAGE_SIZE, RegionType.DATA, PROT_RW
        )


def test_dup_cow_write_isolation(machine):
    parent = make_space(machine)
    pregion = parent.map_segment(layout.DATA_BASE, PAGE_SIZE, RegionType.DATA, PROT_RW)
    frame = pregion.region.ensure_page(0)
    frame.data[0] = 0x11

    child = parent.dup_cow()
    res = child.resolve(layout.DATA_BASE, write=True)
    assert res.kind is Fault.COW
    child_frame = child.materialize(res, layout.DATA_BASE, write=True)
    child_frame.data[0] = 0x22

    assert frame.data[0] == 0x11, "parent page must be untouched"
    # parent's own first write also breaks COW (to its original frame)
    pres = parent.resolve(layout.DATA_BASE, write=True)
    assert pres.kind is Fault.COW
    kept = parent.materialize(pres, layout.DATA_BASE, write=True)
    assert kept.data[0] == 0x11


def test_shared_vm_members_see_same_frames(machine):
    shared = SharedVM(machine)
    member_a = make_space(machine, shared)
    member_b = make_space(machine, shared)
    member_a.map_segment(
        layout.DATA_BASE, PAGE_SIZE, RegionType.DATA, PROT_RW, shared=True
    )
    res_a = member_a.resolve(layout.DATA_BASE, write=True)
    frame = member_a.materialize(res_a, layout.DATA_BASE, write=True)
    frame.data[0] = 0x33
    res_b = member_b.resolve(layout.DATA_BASE, write=False)
    assert res_b.kind is Fault.HIT
    assert member_b.materialize(res_b, layout.DATA_BASE, False).data[0] == 0x33
    assert member_a.asid == member_b.asid


def test_private_examined_before_shared(machine):
    """The PRDA (private) must shadow nothing and be found first."""
    shared = SharedVM(machine)
    member = make_space(machine, shared)
    member.map_segment(layout.PRDA_BASE, PAGE_SIZE, RegionType.PRDA, PROT_RW)
    pregion, is_shared = member.find(layout.PRDA_BASE)
    assert pregion.rtype is RegionType.PRDA
    assert not is_shared


def test_stack_carving_distinct_slots(machine):
    shared = SharedVM(machine)
    member = make_space(machine, shared)
    stack0 = member.carve_stack(shared=True)
    stack1 = member.carve_stack(shared=True)
    assert stack0.vhigh == layout.stack_slot(0, shared.stack_max_bytes)
    assert stack1.vhigh == layout.stack_slot(1, shared.stack_max_bytes)
    assert not stack0.overlaps(stack1.vlow, stack1.vhigh)


def test_764_default_stack_slots_fit_above_the_map_arena(machine):
    """Slots 0..763 of the default size stay above ``MAP_LIMIT``; the
    next would reach into the map arena.  The group's cursors decide."""
    shared = SharedVM(machine)
    member = make_space(machine, shared)
    shared._next_stack_index = 763
    assert member.next_stack_fits()
    lowest = member.carve_stack(shared=True)
    assert lowest.vhigh - shared.stack_max_bytes >= layout.MAP_LIMIT
    assert not member.next_stack_fits()


def test_stack_auto_grow(machine):
    space = make_space(machine)
    stack = space.carve_stack(shared=False)
    below = stack.vlow - 2 * PAGE_SIZE
    res = space.resolve(below, write=True)
    assert res.kind is Fault.GROW
    space.materialize(res, below, write=True)
    assert space.resolve(below, write=True).kind is not Fault.SEGV


def test_stack_growth_respects_ceiling(machine):
    space = make_space(machine)
    space.stack_max_bytes = 8 * PAGE_SIZE
    stack = space.carve_stack(shared=False)
    way_below = stack.vhigh - 64 * PAGE_SIZE
    assert space.resolve(way_below, write=True).kind is Fault.SEGV


def test_dup_cow_flattens_shared_pregions(machine):
    """fork() from a share-group member gets a COW copy of shared regions."""
    shared = SharedVM(machine)
    member = make_space(machine, shared)
    member.map_segment(
        layout.DATA_BASE, PAGE_SIZE, RegionType.DATA, PROT_RW, shared=True
    )
    res = member.resolve(layout.DATA_BASE, write=True)
    frame = member.materialize(res, layout.DATA_BASE, True)
    frame.data[0] = 0x55

    child = member.dup_cow()
    assert child.shared is None
    pregion, is_shared = child.find(layout.DATA_BASE)
    assert pregion is not None and not is_shared
    # child write does not disturb the group's page
    cres = child.resolve(layout.DATA_BASE, write=True)
    assert cres.kind is Fault.COW
    cframe = child.materialize(cres, layout.DATA_BASE, True)
    cframe.data[0] = 0x66
    assert frame.data[0] == 0x55


def test_map_arena_allocation_is_disjoint(machine):
    space = make_space(machine)
    base1 = space.alloc_map_range(3 * PAGE_SIZE)
    base2 = space.alloc_map_range(PAGE_SIZE)
    assert base2 >= base1 + 3 * PAGE_SIZE
    assert base1 >= layout.MAP_BASE


def test_asid_shared_vs_private(machine):
    shared = SharedVM(machine)
    member_a = make_space(machine, shared)
    member_b = make_space(machine, shared)
    loner = make_space(machine)
    assert member_a.asid == member_b.asid
    assert loner.asid != member_a.asid


def test_teardown_private_releases_frames(machine):
    space = make_space(machine)
    space.map_segment(layout.DATA_BASE, 2 * PAGE_SIZE, RegionType.DATA, PROT_RW)
    res = space.resolve(layout.DATA_BASE, write=True)
    space.materialize(res, layout.DATA_BASE, True)
    assert machine.frames.allocated == 1
    space.teardown_private()
    assert machine.frames.allocated == 0
