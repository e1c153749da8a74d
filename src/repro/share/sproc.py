"""Share-group creation and ``sproc()`` child setup (paper section 5.1/6).

``sproc(entry, shmask, arg)`` creates a new process inside the caller's
share group, creating the group itself on first use.  The share mask is
ANDed with the parent's (*strict inheritance*); the child gets a fresh
stack carved from the group's address space — visible to every member
when the VM is shared — and begins execution at ``entry(api, arg)``.
"""

from __future__ import annotations

from repro.errors import ENOMEM, SysError
from repro.mem import layout
from repro.mem.addrspace import AddressSpace
from repro.mem.pregion import PROT_RW
from repro.mem.region import RegionType
from repro.share import vmshare
from repro.share.mask import PR_SADDR, PR_SALL
from repro.share.resources import RESOURCES
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
    for resource in RESOURCES:
        resource.push(proc.uarea, shaddr, None)
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
    the new stack is then *not* visible in the share group).  When the
    next stack slot would reach into the map arena, the call fails
    ENOMEM before anything is built.

    Returns ``(vm, stack_pregion)``.
    """
    if not parent.vm.next_stack_fits():
        raise SysError(ENOMEM, "no stack slot left above the map arena")
    machine = kernel.machine
    if shmask & PR_SADDR:
        vm = AddressSpace(machine, shared=parent.shaddr.shared_vm)
        vm.map_segment(
            layout.PRDA_BASE, layout.PRDA_SIZE, RegionType.PRDA, PROT_RW
        )
        return vm, vm.carve_stack(shared=True)
    vm = parent.vm.dup_cow()
    # The child must not inherit the parent's PRDA contents: sproc gives
    # the child a pristine per-process data area.
    for pregion in list(vm.private):
        if pregion.rtype is RegionType.PRDA:
            vm.detach(pregion)
    vm.map_segment(layout.PRDA_BASE, layout.PRDA_SIZE, RegionType.PRDA, PROT_RW)
    return vm, vm.carve_stack(shared=False)


def child_uarea(parent, shaddr, shmask: int, dispose=None):
    """Fork-copy the u-area, then pull every shared resource from the block.

    Shared resources come from the group's authoritative copies, not the
    parent's u-area — the parent itself might be out of sync.
    """
    ua = parent.uarea.fork_copy()
    for resource in RESOURCES:
        if shmask & resource.bit:
            resource.pull(ua, shaddr, dispose)
    return ua
