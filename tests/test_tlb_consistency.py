"""TLB/page-table consistency: the invariant the shootdown protocol buys.

After any workload, no CPU's TLB may hold a translation to a freed frame,
and unmapped ranges must have no translations anywhere.  A violation here
is exactly the "dangling implicit pointer" failure the paper's section
6.2 locking protocol exists to prevent.
"""


import pytest

from repro import PR_SALL, System
from repro.errors import SimulationError
from repro.mem.frames import PAGE_SIZE
from tests.conftest import run_program


def assert_tlb_maps_live_frames(sim):
    """Every TLB entry must point at an allocated frame."""
    for cpu in sim.machine.cpus:
        for entry in cpu.tlb.entries():
            assert entry.frame.refcount > 0, (
                "CPU%d holds a translation to freed frame %d (%r)"
                % (cpu.idx, entry.pfn, entry)
            )


def assert_no_translation_for(sim, asid, vlow, vhigh):
    for cpu in sim.machine.cpus:
        for entry in cpu.tlb.entries():
            if entry.asid == asid and vlow <= (entry.vpn << 12) < vhigh:
                raise AssertionError(
                    "stale translation survives for unmapped %#x..%#x: %r"
                    % (vlow, vhigh, entry)
                )


def test_tlb_clean_after_group_map_unmap_storm():
    record = {}

    def member(api, ctx):
        base, npages = ctx
        for page in range(npages):
            yield from api.store_word(base + page * PAGE_SIZE, page)
        return 0

    def main(api, out):
        for _round in range(4):
            base = yield from api.mmap(16 * PAGE_SIZE)
            for _ in range(2):
                yield from api.sproc(member, PR_SALL, (base, 16))
            for _ in range(2):
                yield from api.wait()
            yield from api.munmap(base)
            out.setdefault("ranges", []).append(
                (api.proc.vm.asid, base, base + 16 * PAGE_SIZE)
            )
        return 0

    out, sim = run_program(main, ncpus=4)
    assert_tlb_maps_live_frames(sim)
    for asid, vlow, vhigh in out["ranges"]:
        assert_no_translation_for(sim, asid, vlow, vhigh)


def test_tlb_clean_after_fork_cow_churn():
    def child(api, base):
        for page in range(8):
            yield from api.store_word(base + page * PAGE_SIZE, 0xC0)
        return 0

    def main(api, out):
        base = yield from api.mmap(8 * PAGE_SIZE)
        for page in range(8):
            yield from api.store_word(base + page * PAGE_SIZE, 1)
        for _ in range(3):
            yield from api.fork(child, base)
            # parent keeps writing while children break COW
            for page in range(8):
                yield from api.store_word(base + page * PAGE_SIZE, 2)
            yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert_tlb_maps_live_frames(sim)


def test_tlb_clean_after_sbrk_shrink_in_group():
    def member(api, arg):
        old = yield from api.sbrk(8 * PAGE_SIZE)
        for page in range(8):
            yield from api.store_word(old + page * PAGE_SIZE, page)
        yield from api.sbrk(-8 * PAGE_SIZE)
        return 0

    def main(api, out):
        # sequential: concurrent sbrk +/- on the one shared data segment
        # would interleave (grow/shrink are whole-group operations)
        for _ in range(2):
            yield from api.sproc(member, PR_SALL)
            yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert_tlb_maps_live_frames(sim)
    assert sim.stats["shootdowns"] >= 2


def test_no_cross_asid_pollution():
    """Two unrelated processes writing the same virtual addresses must
    end with disjoint (asid-tagged) translations."""

    def toucher(api, tag):
        base = yield from api.mmap(4 * PAGE_SIZE)
        for page in range(4):
            yield from api.store_word(base + page * PAGE_SIZE, tag)
        value = yield from api.load_word(base)
        return 0 if value == tag else 1

    def main(api, out):
        yield from api.fork(toucher, 1)
        yield from api.fork(toucher, 2)
        codes = []
        for _ in range(2):
            _, status = yield from api.wait()
            codes.append(status)
        out["codes"] = codes
        return 0

    out, sim = run_program(main, ncpus=2)
    from repro import status_code

    assert [status_code(s) for s in out["codes"]] == [0, 0]
    assert_tlb_maps_live_frames(sim)


def test_group_members_share_tlb_tag():
    """VM-sharing members run under one ASID, so a member's refill warms
    the TLB for its siblings (the context-switch economy of 6.2)."""

    def member(api, ctx):
        base, record = ctx
        yield from api.store_word(base, api.pid)
        record.append(api.proc.vm.asid)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        record = []
        for _ in range(3):
            yield from api.sproc(member, PR_SALL, (base, record))
        for _ in range(3):
            yield from api.wait()
        record.append(api.proc.vm.asid)
        out["asids"] = record
        return 0

    out, _ = run_program(main, ncpus=2)
    assert len(set(out["asids"])) == 1


def test_stale_translation_never_reads_another_pages_frame():
    """A translation that outlives its page without a shootdown must
    not silently reach whichever page reuses the frame number."""

    def main(api, out):
        base = yield from api.mmap(PAGE_SIZE)
        yield from api.store_word(base, 7)  # fault in, cache in the TLB
        out["base"] = base
        yield from api.compute(1_000_000)
        return 0

    out = {}
    sim = System(ncpus=1)
    proc = sim.spawn(main, out)
    sim.run(until=500_000)  # mid-compute, still on its CPU
    base = out["base"]
    entry = proc.cpu.tlb.probe(proc.vm.asid, base // PAGE_SIZE)
    assert entry is not None
    # host-side: free the page's frame behind the TLB's back, then let
    # the allocator hand its pfn to a fresh frame
    pregion, _shared = proc.vm.find(base)
    index = pregion.page_index(base)
    old = pregion.region.pages[index]
    pregion.region.pages[index] = None
    sim.machine.frames.release(old)
    reused = sim.machine.frames.alloc()
    assert reused.pfn == old.pfn
    with pytest.raises(SimulationError, match="access to free frame"):
        sim.kernel.vm_hit(proc, base, False)
