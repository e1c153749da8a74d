"""Share-group creation and ``sproc()`` child setup (paper section 5.1/6).

``sproc(entry, shmask, arg)`` creates a new process inside the caller's
share group, creating the group itself on first use.  The share mask is
ANDed with the parent's (*strict inheritance*); the child gets a fresh
stack carved from the group's address space — visible to every member
when the VM is shared — and begins execution at ``entry(api, arg)``.
"""

from __future__ import annotations

from repro.mem import layout
from repro.mem.addrspace import AddressSpace
from repro.mem.pregion import PROT_RW
from repro.mem.region import RegionType
from repro.share import vmshare
from repro.share.mask import (
    PR_PRIVDATA,
    PR_SADDR,
    PR_SALL,
    PR_SDIR,
    PR_SFDS,
    PR_SID,
    PR_SULIMIT,
    PR_SUMASK,
    inherit_mask,
)
from repro.share.shaddr import SharedAddressBlock


def ensure_group(kernel, proc) -> SharedAddressBlock:
    """Create the caller's share group on first ``sproc()``.

    The creator's sharable pregions move onto the shared list, the block
    is seeded with its resources, and the creator's mask is set to
    ``PR_SALL`` (the original process shares everything).
    """
    if proc.shaddr is not None:
        return proc.shaddr
    shaddr = SharedAddressBlock(
        kernel.machine, kernel.sched, kernel.vm_lock_factory
    )
    shared_vm = shaddr.shared_vm
    # Seed the carving cursors from the creator's standalone space so the
    # group's layout continues where the creator's left off.
    shared_vm._next_stack_index = proc.vm._next_stack_index
    shared_vm._next_map_base = proc.vm._next_map_base
    shared_vm.stack_max_bytes = proc.uarea.stack_max
    shaddr.add_member(proc)
    proc.shaddr = shaddr
    proc.p_shmask = PR_SALL
    old_asid = proc.vm.asid
    vmshare.move_pregions_to_shared(proc)
    # The creator now runs under the group's ASID; its old standalone
    # translations are orphaned (the model of ASID recycling).
    kernel.machine.tlb_flush_asid(old_asid)
    shaddr.seed_from(proc.uarea)
    kernel.stats["groups_created"] += 1
    shaddr.sgid = kernel.stats["groups_created"]
    shaddr.ks = kernel.kstat.counters("group", shaddr.sgid)
    kernel.kstat.add("kernel", 0, "groups_created")
    return shaddr


def build_child_vm(kernel, parent, shmask: int):
    """Build the child's address space per the requested mask.

    With ``PR_SADDR`` the child attaches to the group's shared VM and
    gets only a private PRDA plus a fresh shared stack.  Without it the
    child receives a copy-on-write image of the group's space (paper:
    the new stack is then *not* visible in the share group).

    Returns ``(vm, stack_pregion)``.
    """
    machine = kernel.machine
    if shmask & PR_SADDR:
        vm = AddressSpace(machine, shared=parent.shaddr.shared_vm)
        vm.map_segment(
            layout.PRDA_BASE, layout.PRDA_SIZE, RegionType.PRDA, PROT_RW
        )
        stack = vm.carve_stack(shared=True)
        if shmask & PR_PRIVDATA:
            _privatize_data(vm)
        return vm, stack
    vm = parent.vm.dup_cow()
    # The child must not inherit the parent's PRDA contents: sproc gives
    # the child a pristine per-process data area.
    for pregion in list(vm.private):
        if pregion.rtype is RegionType.PRDA:
            vm.detach(pregion)
    vm.map_segment(layout.PRDA_BASE, layout.PRDA_SIZE, RegionType.PRDA, PROT_RW)
    stack = vm.carve_stack(shared=False)
    return vm, stack


def _privatize_data(vm) -> int:
    """Selective sharing (section 8 extension): shadow the group's DATA
    pregions with private copy-on-write clones.

    The caller holds the update lock.  Because private pregions are
    examined first, the child reads and writes its own copy while every
    other member keeps using the shared segment; resident pages become
    COW on both sides, so the caller must shoot the group's TLBs down
    afterwards.  Returns the number of pregions privatized.
    """
    shadowed = 0
    for data in vm.shared.pregions:
        if data.rtype is not RegionType.DATA:
            continue
        vm.attach_private(data.dup_cow(), allow_shadow=True)
        shadowed += 1
    return shadowed


def child_uarea(parent, shaddr, shmask: int, dispose=None):
    """Fork-copy the u-area, then overwrite shared values from the block.

    Shared resources come from the group's authoritative copies, not the
    parent's u-area — the parent itself might be out of sync.
    """
    ua = parent.uarea.fork_copy()
    if shmask & PR_SFDS:
        ua.fdtable.sync_from(shaddr.s_ofile, dispose=dispose)
    if shmask & PR_SDIR:
        ua.set_cdir(shaddr.s_cdir)
        ua.set_rdir(shaddr.s_rdir)
    if shmask & PR_SID:
        ua.uid = shaddr.s_uid
        ua.gid = shaddr.s_gid
    if shmask & PR_SUMASK:
        ua.cmask = shaddr.s_cmask
    if shmask & PR_SULIMIT:
        ua.ulimit = shaddr.s_limit
    return ua


def effective_mask(parent, requested: int) -> int:
    """Strict inheritance against the parent's own mask.

    Only the resource bits (the PR_SALL range) are subject to
    inheritance; modifier bits such as ``PR_PRIVDATA`` request *less*
    sharing and pass through unchanged.
    """
    parent_mask = parent.p_shmask if parent.shaddr is not None else PR_SALL
    resources = inherit_mask(parent_mask, requested & PR_SALL)
    modifiers = requested & ~PR_SALL
    return resources | modifiers
