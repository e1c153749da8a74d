"""The VM translation fast path: interval index vs linear scan.

The property test drives randomized attach/detach/grow/shrink
sequences and asserts the indexed and linear lookups agree on every
probe, and that the indexed overlap check rejects exactly what a linear
scan rejects — the index is an optimization, never a semantic change.
The rest covers the one-pass detach regression, the ablation flag, and
determinism.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.mem.addrspace import AddressSpace, SharedVM, make_region
from repro.mem.frames import PAGE_SIZE
from repro.mem.pregion import Growth, PROT_RW, Pregion
from repro.mem.region import RegionType
from repro.sim.machine import Machine
from repro.system import System
from repro import PR_SALL

SLOT_PAGES = 16
NSLOTS = 12
BASE = 0x10000000


def _slot_base(slot):
    return BASE + slot * SLOT_PAGES * PAGE_SIZE


def _make_pregion(machine, slot, growth):
    base = _slot_base(slot)
    if growth is Growth.DOWN:
        # Top of the slot, ceiling sized so it can reach the slot base.
        vbase = base + (SLOT_PAGES - 6) * PAGE_SIZE
        region = make_region(machine.frames, 2 * PAGE_SIZE, RegionType.STACK)
        return Pregion(region, vbase, PROT_RW, Growth.DOWN,
                       max_pages=SLOT_PAGES - 4)
    if growth is Growth.UP:
        region = make_region(machine.frames, 2 * PAGE_SIZE, RegionType.DATA)
        return Pregion(region, base, PROT_RW, Growth.UP,
                       max_pages=SLOT_PAGES)
    region = make_region(machine.frames, 3 * PAGE_SIZE, RegionType.SHM)
    return Pregion(region, base, PROT_RW)


def _assert_equivalent(vm):
    for slot in range(NSLOTS):
        for page in (0, 1, 7, SLOT_PAGES - 6, SLOT_PAGES - 1):
            vaddr = _slot_base(slot) + page * PAGE_SIZE + 4
            lin = vm._find_linear(vaddr)
            idx = vm._find_indexed(vaddr)
            assert lin[0] is idx[0], hex(vaddr)
            assert lin[1] == idx[1], hex(vaddr)
            grow_lin = vm._growable_stack_linear(vaddr)
            grow_idx = vm._growable_stack_indexed(vaddr)
            if grow_lin is None:
                assert grow_idx is None, hex(vaddr)
            else:
                assert grow_idx is not None, hex(vaddr)
                assert grow_lin[0] is grow_idx[0]
                assert grow_lin[1] == grow_idx[1]


def _assert_overlap_check_exact(vm, rng):
    """``check_overlap`` raises for exactly what a linear scan rejects."""
    span = NSLOTS * SLOT_PAGES
    for _ in range(15):
        lo_page = rng.randrange(span)
        hi_page = lo_page + rng.randrange(2 * SLOT_PAGES)
        vlow = BASE + lo_page * PAGE_SIZE
        vhigh = BASE + hi_page * PAGE_SIZE
        linear = any(
            pregion.overlaps(vlow, vhigh)
            for pregion, _shared in vm.iter_pregions()
        )
        try:
            vm.check_overlap(vlow, vhigh)
            raised = False
        except SimulationError:
            raised = True
        assert raised == linear, (hex(vlow), hex(vhigh))


@pytest.mark.parametrize("seed", range(8))
def test_index_matches_linear_scan_under_random_traffic(seed):
    machine = Machine(ncpus=1)
    shared_vm = SharedVM(machine)
    vm = AddressSpace(machine, shared=shared_vm)
    rng = random.Random(seed)
    probe_rng = random.Random(1000 + seed)
    private_at = {}
    shared_at = {}

    for _ in range(80):
        op = rng.choice(
            ["attach_private", "attach_shared",
             "detach", "grow_up", "grow_down", "shrink"]
        )
        if op == "attach_private":
            free = [s for s in range(NSLOTS)
                    if s not in private_at and s not in shared_at]
            if free:
                slot = rng.choice(free)
                growth = rng.choice([Growth.NONE, Growth.UP, Growth.DOWN])
                pregion = _make_pregion(machine, slot, growth)
                vm.attach_private(pregion)
                private_at[slot] = pregion
        elif op == "attach_shared":
            free = [s for s in range(NSLOTS)
                    if s not in private_at and s not in shared_at]
            if free:
                slot = rng.choice(free)
                growth = rng.choice([Growth.NONE, Growth.UP, Growth.DOWN])
                pregion = _make_pregion(machine, slot, growth)
                vm.attach_shared(pregion)
                shared_at[slot] = pregion
        elif op == "detach":
            table = rng.choice([private_at, shared_at])
            if table:
                slot = rng.choice(sorted(table))
                vm.detach(table.pop(slot))
        elif op == "grow_up":
            candidates = [
                p for p in list(private_at.values()) + list(shared_at.values())
                if p.growth is Growth.UP
                and p.region.npages + 1 <= p.max_pages
            ]
            if candidates:
                rng.choice(candidates).grow_up(1)
        elif op == "grow_down":
            candidates = [
                p for p in list(private_at.values()) + list(shared_at.values())
                if p.growth is Growth.DOWN
            ]
            if candidates:
                pregion = rng.choice(candidates)
                target = pregion.vlow - PAGE_SIZE
                if pregion.can_grow_down_to(target):
                    pregion.grow_down_to(target)
        elif op == "shrink":
            # An empty pregion still counts as overlapping any range
            # that strictly contains its address.
            candidates = [
                p for p in list(private_at.values()) + list(shared_at.values())
                if p.region.npages
            ]
            if candidates:
                pregion = rng.choice(candidates)
                pregion.shrink(pregion.region.npages)
        _assert_equivalent(vm)
        _assert_overlap_check_exact(vm, probe_rng)


def test_view_keeps_stable_order_and_overlap_check_skips_empties():
    """Edits keep the view equal to a stable sort (a newer member goes
    after older ones with the same start), and the overlap check walks
    past an empty member lying inside a non-empty one."""
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    data = _make_pregion(machine, 0, Growth.UP)
    vm.attach_private(data)
    vm.check_overlap(_slot_base(5), _slot_base(6))  # builds the view
    empty = make_region(machine.frames, 0, RegionType.SHM)
    at_end = Pregion(empty, data.vhigh, PROT_RW)
    at_start = Pregion(empty, data.vlow, PROT_RW)
    vm.attach_private(at_end)
    vm.attach_private(at_start)
    assert vm.private.index_errors() == []
    data.grow_up(2)  # now strictly contains ``at_end``
    with pytest.raises(SimulationError):
        vm.check_overlap(data.vhigh - PAGE_SIZE, data.vhigh)


def test_detach_of_unattached_raises():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    loose = _make_pregion(machine, 0, Growth.NONE)
    with pytest.raises(SimulationError):
        vm.detach(loose)


def test_double_detach_raises():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    pregion = _make_pregion(machine, 0, Growth.NONE)
    vm.attach_private(pregion)
    vm.detach(pregion)
    with pytest.raises(SimulationError):
        vm.detach(pregion)


def test_detach_from_wrong_space_raises():
    machine = Machine(ncpus=1)
    vm_a = AddressSpace(machine)
    vm_b = AddressSpace(machine)
    pregion = _make_pregion(machine, 0, Growth.NONE)
    vm_a.attach_private(pregion)
    with pytest.raises(SimulationError):
        vm_b.detach(pregion)
    # still attached where it belongs
    assert pregion in vm_a.private
    vm_a.detach(pregion)


def test_list_reassignment_keeps_owner_backrefs():
    machine = Machine(ncpus=1)
    vm = AddressSpace(machine)
    keep = _make_pregion(machine, 0, Growth.NONE)
    drop = _make_pregion(machine, 1, Growth.NONE)
    vm.attach_private(keep)
    vm.attach_private(drop)
    vm.private = [keep]
    assert keep.owner is vm.private
    assert drop.owner is None
    found, shared = vm.find(_slot_base(0) + 4)
    assert found is keep and not shared
    assert vm.find(_slot_base(1) + 4) == (None, False)


def test_unknown_vm_index_mode_rejected():
    with pytest.raises(ValueError):
        System(ncpus=1, vm_index="btree")


def _mapping_workload(api, ctx):
    bases = []
    for _ in range(ctx["nmaps"]):
        base = yield from api.mmap(PAGE_SIZE)
        yield from api.store_word(base, 1)
        bases.append(base)
    total = 0
    for base in bases:
        value = yield from api.load_word(base)
        total += value
    ctx["out"]["total"] = total
    return 0


def _group_workload(api, ctx):
    def member(api, ctx):
        for base in ctx["bases"]:
            yield from api.load_word(base)
        return 0

    bases = []
    for _ in range(ctx["nmaps"]):
        base = yield from api.mmap(PAGE_SIZE)
        yield from api.store_word(base, 1)
        bases.append(base)
    ctx["bases"] = bases
    for _ in range(3):
        yield from api.sproc(member, PR_SALL, ctx)
    for _ in range(3):
        yield from api.wait()
    ctx["out"]["done"] = True
    return 0


def _run_mode(main, vm_index, nmaps=10, metrics=True):
    out = {}
    sim = System(ncpus=2, vm_index=vm_index, metrics_enabled=metrics)
    sim.spawn(main, {"nmaps": nmaps, "out": out})
    cycles = sim.run()
    return cycles, out, sim


def test_modes_agree_without_shrink_or_detach():
    """Lookup strategy is invisible to the timeline: absent range
    shootdowns, indexed and linear runs are cycle-identical."""
    for main in (_mapping_workload, _group_workload):
        cyc_lin, out_lin, _ = _run_mode(main, "linear")
        cyc_idx, out_idx, _ = _run_mode(main, "indexed")
        assert cyc_lin == cyc_idx
        assert out_lin == out_idx


def test_linear_mode_is_deterministic():
    runs = [_run_mode(_group_workload, "linear")[0] for _ in range(2)]
    assert runs[0] == runs[1]
    quiet = _run_mode(_group_workload, "linear", metrics=False)[0]
    assert quiet == runs[0]


def test_indexed_mode_is_deterministic():
    runs = [_run_mode(_group_workload, "indexed")[0] for _ in range(2)]
    assert runs[0] == runs[1]
    quiet = _run_mode(_group_workload, "indexed", metrics=False)[0]
    assert quiet == runs[0]


def test_scan_length_counters_flow():
    cycles, _out, sim = _run_mode(_group_workload, "indexed")
    kernel = sim.kstat.scope("kernel", 0)
    assert kernel.get("vm_lookups", 0) > 0
    assert kernel.get("pregion_scan_len", 0) > 0
    assert kernel.get("vm_index_hits", 0) > 0
    lin_sim = _run_mode(_group_workload, "linear")[2]
    lin_kernel = lin_sim.kstat.scope("kernel", 0)
    assert lin_kernel.get("vm_lookups", 0) > 0
    assert "vm_index_hits" not in lin_kernel
