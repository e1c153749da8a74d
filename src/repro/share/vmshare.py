"""Shared virtual memory management for share groups (paper section 6.2).

The shared pregion list lives in the shared address block and is guarded
by the shared read lock: scans (page faults, the pager) take it for
read; anything that changes the list *or what it points to* — fork,
exec, mmap, sbrk, region shrink — takes it for update.

Deleting or shrinking address space additionally performs a synchronous
TLB shootdown while holding the update lock, so a member running on
another CPU immediately TLB-misses, traps, and blocks on the read lock
until the pages are really gone.  That is the only expensive VM
operation in the design, which experiment E5 demonstrates.

The map arena's one attach path (``mmap``, ``shmat``) and one detach
path (``munmap``, ``shmdt``) live here too, for private and shared
address spaces alike.
"""

from __future__ import annotations

from repro.errors import EINVAL, ENOMEM, SysError
from repro.inject import INJECT_DELAY_CYCLES
from repro.mem.addrspace import make_region
from repro.mem.pregion import PROT_RW, Pregion
from repro.mem.region import RegionType
from repro.sim.effects import kdelay


def sharing_vm(proc) -> bool:
    """Is this process running on a share group's shared VM image?"""
    return proc.shaddr is not None and proc.vm.shared is proc.shaddr.shared_vm


def read_acquire(proc):
    """Generator: take the group's shared read lock (no-op off-group)."""
    if sharing_vm(proc):
        # Delay-type failpoint: stretch the window between deciding to
        # take the lock and taking it, so lock-ordering races surface.
        if proc.vm.machine.inject.fire("vmlock.read.delay"):
            yield kdelay(INJECT_DELAY_CYCLES)
        yield from proc.shaddr.vm_lock.acquire_read(proc)


def read_release(proc):
    """The steps that leave the group's read lock, to ``yield from``
    (none off-group)."""
    if sharing_vm(proc):
        return proc.shaddr.vm_lock.release_read(proc)
    return ()


def update_acquire(proc):
    if sharing_vm(proc):
        if proc.vm.machine.inject.fire("vmlock.update.delay"):
            yield kdelay(INJECT_DELAY_CYCLES)
        yield from proc.shaddr.vm_lock.acquire_update(proc)


def update_release(proc):
    """The steps that end the group's update, to ``yield from`` (none
    off-group)."""
    if sharing_vm(proc):
        return proc.shaddr.vm_lock.release_update(proc)
    return ()


def shootdown(kernel, proc):
    """Generator: synchronous all-CPU TLB flush for this address space.

    Must be called with the update lock held.  The initiator pays the
    full cross-CPU cost — nobody else waits for anything except the lock.
    """
    asid = proc.vm.asid
    cost = kernel.machine.tlb_shootdown(asid)
    yield from _shootdown_sent(kernel, proc, cost, "asid=%d" % asid)


def shootdown_range(kernel, proc, vpn_lo: int, vpn_hi: int):
    """Generator: targeted synchronous shootdown of one VPN window.

    Region shrink and detach only invalidate the pages they remove, so
    every other warm translation in the group survives (no refill storm).
    Must be called with the update lock held.  Falls back to the full
    per-ASID flush under the ``vm_index="linear"`` ablation so that mode
    reproduces the old timeline bit-identically.
    """
    if kernel.machine.vm_index == "linear":
        yield from shootdown(kernel, proc)
        return
    asid = proc.vm.asid
    cost = kernel.machine.tlb_shootdown_range(asid, vpn_lo, vpn_hi)
    kernel.kstat.add("kernel", 0, "shootdown_pages", vpn_hi - vpn_lo)
    yield from _shootdown_sent(
        kernel, proc, cost, "asid=%d vpn=%#x..%#x" % (asid, vpn_lo, vpn_hi)
    )


def _shootdown_sent(kernel, proc, cost: int, detail: str):
    """Generator: what every shootdown counts, then the initiator's charge."""
    kernel.stats["shootdowns"] += 1
    kernel.pcount(proc, "shootdowns_sent")
    kernel.trace("shootdown", proc.pid, detail)
    kstat = kernel.kstat
    here = proc.cpu
    if here is not None:
        kstat.add("cpu", here.idx, "shootdown_ipis_sent",
                  kernel.machine.ncpus - 1)
    for cpu in kernel.machine.cpus:
        if cpu is not here:
            kstat.add("cpu", cpu.idx, "shootdown_ipis_rcvd")
    yield kdelay(cost)


def attach_mapping(kernel, proc, nbytes: int, region):
    """Generator: attach a region at a fresh window of the map arena;
    returns the window's base (``mmap``, ``shmat``).

    ``region`` is a SysV segment's region, or None for ``nbytes`` of
    fresh anonymous pages (which also pays the region's creation).  On
    a shared VM this is an update-lock operation and the pregion goes
    on the shared list: "if one process adds a pregion ... all other
    share group members will immediately see that new virtual region."
    An arena too full for ``nbytes`` is ENOMEM, with the cursor and the
    pregion lists unchanged.
    """
    sharing = sharing_vm(proc)
    if sharing:
        yield from update_acquire(proc)
    try:
        try:
            base = proc.vm.alloc_map_range(nbytes)
        except MemoryError:
            raise SysError(ENOMEM, "mapping arena exhausted") from None
        cost = kernel.costs.region_attach
        if region is None:
            region = make_region(proc.vm.frames, nbytes, RegionType.SHM)
            cost += kernel.costs.region_create
        pregion = Pregion(region, base, PROT_RW)
        if sharing:
            proc.vm.attach_shared(pregion)
        else:
            proc.vm.attach_private(pregion)
        yield kdelay(cost)
    finally:
        if sharing:
            yield from update_release(proc)
    return base


def detach_mapping(kernel, proc, vaddr: int):
    """Generator: detach the whole map-arena pregion based at ``vaddr``
    (``munmap``, ``shmdt``; anything else is EINVAL).

    The shootdown protocol: invalidate the window on every CPU while
    holding the update lock, *then* drop the pages.
    """
    sharing = sharing_vm(proc)
    if sharing:
        yield from update_acquire(proc)
    try:
        pregion, _shared = proc.vm.find(vaddr)
        if (
            pregion is None
            or pregion.vbase != vaddr
            or pregion.rtype is not RegionType.SHM
        ):
            raise SysError(EINVAL, "no mapping based at %#x" % vaddr)
        if sharing:
            yield from shootdown_range(
                kernel, proc, pregion.vpn_low, pregion.vpn_high
            )
        else:
            yield from kernel.tlb_invalidate_range(
                proc, pregion.vpn_low, pregion.vpn_high
            )
        proc.vm.detach(pregion)
        yield kdelay(kernel.costs.region_attach)
    finally:
        if sharing:
            yield from update_release(proc)


def move_pregions_to_shared(proc) -> int:
    """Group creation: migrate the creator's sharable pregions.

    Everything except the PRDA moves from the private list to the shared
    list (the paper: "all of its sharable pregions are moved to the list
    of pregions in the shared address block"; private text planted by a
    debugger would also stay, which we model by keeping anything the
    caller marked non-sharable).
    Returns the number of pregions moved.
    """
    shared_vm = proc.shaddr.shared_vm
    keep = []
    moved = 0
    for pregion in proc.vm.private:
        if pregion.rtype is RegionType.PRDA:
            keep.append(pregion)
        else:
            shared_vm.pregions.append(pregion)
            moved += 1
    proc.vm.private = keep
    proc.vm.join(shared_vm)
    return moved
