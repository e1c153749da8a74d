"""Cross-structure state invariants for a simulated system.

Each checker inspects one relationship the kernel maintains across
several locks and returns a list of human-readable findings (empty when
the invariant holds).  They never mutate state and never charge cycles,
so tests and the schedule explorer can call them after — or even during
— a run.

The relationships, with the paper sections they come from:

* **shaddr refcounts** (section 6.1): ``s_refcnt`` counts the member
  list, every member points back at the block, and nobody dead lingers
  on the list.
* **pregion vs TLB residency** (section 6.2): every cached translation
  for a live address space must agree with what a page-table walk finds
  *now* — a stale entry after an munmap/shrink means a missed shootdown.
* **fd refcounts** (section 6.3): an open file's reference count equals
  the descriptor slots naming it across all live processes plus the one
  reference each share group's ``s_ofile`` copy holds.
* **shmask consistency** (the dynamic-unshare lifecycle): a process's
  share mask, its sync flags, and its VM attachment must agree — a
  cleared ``PR_SADDR`` means a private address space, a set one means
  the group's, and a pending sync flag is only legal while the matching
  mask bit is still set.
* **vm index** (the section 6.2 lookup's fast path): every pregion
  list's sorted view matches its members, no two non-empty members of
  one list overlap (the indexed lookup and overlap check rely on it),
  and every space runs under the ASID its attachment implies.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.kernel.flags import ALL_SYNC
from repro.mem.frames import PAGE_SHIFT
from repro.share.mask import PR_SADDR
from repro.share.resources import RESOURCES


def _live_procs(sim) -> List:
    return [proc for proc in sim.kernel.proc_table.all_procs() if proc.alive()]


def _live_blocks(sim) -> List:
    """Distinct shared address blocks reachable from live processes."""
    blocks = []
    seen = set()
    for proc in _live_procs(sim):
        block = proc.shaddr
        if block is not None and id(block) not in seen:
            seen.add(id(block))
            blocks.append(block)
    return blocks


# ----------------------------------------------------------------------
# shaddr: reference count vs member list

def check_shaddr_refcounts(sim) -> List[str]:
    """``s_refcnt`` == member count; membership is mutual and alive."""
    findings = []
    live = _live_procs(sim)
    for block in _live_blocks(sim):
        members = block.members()
        if block.s_refcnt != len(members):
            findings.append(
                "shaddr sgid=%d: s_refcnt=%d but %d members on s_plink"
                % (block.sgid, block.s_refcnt, len(members))
            )
        for member in members:
            if member.shaddr is not block:
                findings.append(
                    "shaddr sgid=%d: member pid %d points at a different block"
                    % (block.sgid, member.pid)
                )
            if not member.alive():
                findings.append(
                    "shaddr sgid=%d: member pid %d is %s (dead member on list)"
                    % (block.sgid, member.pid, member.state.value)
                )
    for proc in live:
        if proc.shaddr is not None and proc not in proc.shaddr.members():
            findings.append(
                "pid %d has shaddr sgid=%d but is not on its member list"
                % (proc.pid, proc.shaddr.sgid)
            )
    return findings


# ----------------------------------------------------------------------
# pregion lists vs TLB residency

def check_pregion_tlb(sim) -> List[str]:
    """Every TLB entry for a live ASID must match a current translation.

    Share-group members run under one ASID but each keeps a private
    PRDA pregion at the same virtual address.  Such a private
    translation stays only in the TLB of the CPU its process runs on —
    the fault path caches it there alone and the CPU drops it when the
    process leaves — but this checker does not tie entries to CPUs, so
    an entry is valid if *any* live address space with that ASID
    resolves the page to the very Frame the entry caches (identity, not
    pfn: a freed frame's pfn may already back another page).  A
    writable entry additionally requires the page to be writable now
    (not copy-on-write) in the space that matched.  Entries for retired
    ASIDs are skipped: ASIDs are never recycled, so they can only belong
    to exited processes.
    """
    findings = []
    spaces: Dict[int, List] = {}
    for proc in _live_procs(sim):
        spaces.setdefault(proc.vm.asid, []).append(proc.vm)
    for cpu in sim.machine.cpus:
        for entry in cpu.tlb.entries():
            vms = spaces.get(entry.asid)
            if vms is None:
                continue
            vaddr = entry.vpn << PAGE_SHIFT
            matched = False
            for vm in vms:
                pregion, _shared = vm.find(vaddr)
                if pregion is None:
                    continue
                index = pregion.page_index(vaddr)
                if pregion.region.pages[index] is not entry.frame:
                    continue
                if entry.writable and not vm.writable_now(pregion, index):
                    continue
                matched = True
                break
            if not matched:
                findings.append(
                    "cpu%d TLB: stale entry asid=%d vpn=%#x pfn=%d%s "
                    "(no live space maps it)"
                    % (cpu.idx, entry.asid, entry.vpn, entry.pfn,
                       " rw" if entry.writable else "")
                )
    return findings


# ----------------------------------------------------------------------
# TLB per-ASID index coherence

def check_tlb_asid_index(sim) -> List[str]:
    """Every CPU's per-ASID TLB index mirrors its primary entry map.

    Trivially clean under ``vm_index="linear"`` (no index exists).
    """
    findings = []
    for cpu in sim.machine.cpus:
        findings.extend(
            "cpu%d TLB: %s" % (cpu.idx, error)
            for error in cpu.tlb.index_errors()
        )
    return findings


# ----------------------------------------------------------------------
# fd table refcounts

def check_fd_refcounts(sim) -> List[str]:
    """Open-file refcounts equal descriptor slots plus shaddr copies."""
    findings = []
    expected: Dict[int, int] = {}
    files: Dict[int, Any] = {}

    def note(file) -> None:
        if file is not None:
            files[id(file)] = file
            expected[id(file)] = expected.get(id(file), 0) + 1

    for proc in _live_procs(sim):
        for slot in proc.uarea.fdtable.slots:
            note(slot)
    for block in _live_blocks(sim):
        for slot in block.s_ofile:
            note(slot)
    for key, file in sorted(files.items(), key=lambda item: item[0]):
        want = expected[key]
        if file.refcount != want:
            findings.append(
                "file %r: refcount=%d but %d references reachable "
                "(fd slots + shaddr copies)" % (file, file.refcount, want)
            )
    return findings


# ----------------------------------------------------------------------
# share mask vs actual resource attachment

def check_shmask_consistency(sim) -> List[str]:
    """A proc's share mask must agree with what it actually shares.

    Outside a group the mask, the sync flags, and the VM attachment are
    all clear.  Inside one, a set ``PR_SADDR`` means the proc runs on
    the group's shared VM and a cleared one means a private space (a
    completed detach); a pending sync flag without its mask bit would
    make ``sync_on_entry`` overwrite a privatized resource.  A member
    with mask 0 is *not* flagged: ``sproc`` deliberately enrolls even
    mask-0 children in the group.
    """
    findings = []
    for proc in _live_procs(sim):
        block = proc.shaddr
        mask = proc.p_shmask
        sync = proc.p_flag & ALL_SYNC
        if block is None:
            if mask != 0:
                findings.append(
                    "pid %d: share mask %#x but no share group" % (proc.pid, mask)
                )
            if sync != 0:
                findings.append(
                    "pid %d: sync flags %#x but no share group" % (proc.pid, sync)
                )
            if proc.vm.shared is not None:
                findings.append(
                    "pid %d: attached to a shared VM but no share group"
                    % proc.pid
                )
            continue
        if mask & PR_SADDR:
            if proc.vm.shared is not block.shared_vm:
                findings.append(
                    "pid %d: PR_SADDR set but not running on the group's "
                    "shared VM" % proc.pid
                )
        elif proc.vm.shared is not None:
            findings.append(
                "pid %d: PR_SADDR clear but still attached to a shared VM"
                % proc.pid
            )
        for resource in RESOURCES:
            if sync & resource.sync and not mask & resource.bit:
                findings.append(
                    "pid %d: sync flag %#x pending for unshared resource "
                    "%s" % (proc.pid, resource.sync, resource.name)
                )
    return findings


# ----------------------------------------------------------------------
# pregion list indexes and ASIDs

def check_vm_index(sim) -> List[str]:
    """Pregion lists are coherent with their sorted views; ASIDs current.

    Covers each live space's private list and each live group's shared
    list (:meth:`PregionList.index_errors`), and checks that a space's
    ``asid`` is its ``SharedVM``'s while it has one, else its own.
    """
    findings: List[str] = []
    for proc in _live_procs(sim):
        vm = proc.vm
        findings.extend(
            "pid %d private list: %s" % (proc.pid, error)
            for error in vm.private.index_errors()
        )
        want = vm.shared.asid if vm.shared is not None else vm._own_asid
        if vm.asid != want:
            findings.append(
                "pid %d: runs under asid %s but its attachment implies %s"
                % (proc.pid, vm.asid, want)
            )
    for block in _live_blocks(sim):
        findings.extend(
            "shaddr sgid=%d shared list: %s" % (block.sgid, error)
            for error in block.shared_vm.pregions.index_errors()
        )
    return findings


# ----------------------------------------------------------------------

#: name -> checker, the order reports list them in
CHECKERS = {
    "shaddr-refcounts": check_shaddr_refcounts,
    "pregion-tlb": check_pregion_tlb,
    "tlb-asid-index": check_tlb_asid_index,
    "fd-refcounts": check_fd_refcounts,
    "shmask-consistency": check_shmask_consistency,
    "vm-index": check_vm_index,
}


def run_invariants(sim) -> List[str]:
    """Run every checker; returns all findings, prefixed by checker name."""
    findings = []
    for name, checker in CHECKERS.items():
        findings.extend("%s: %s" % (name, finding) for finding in checker(sim))
    return findings


# ----------------------------------------------------------------------
# resource leak audit (fault-injection support)

def check_leaks(sim) -> List[str]:
    """What a finished run still holds: frames, share groups, live
    processes, and wait queues (pipes, sockets, SysV semaphore sets,
    usync channels) with a banked claim, a sleeper or a wakeup nobody
    took.

    Meant to be called after every process has exited — anything still
    held is a leak in some error path.  SysV shm segments keep their
    frames until ``shmctl_rmid``, so those frames are not leaks.
    """
    findings: List[str] = []
    frames = sim.machine.frames.allocated
    shm_frames = sum(
        segment.region.resident_pages()
        for segment in sim.kernel.shm._by_id.values()
        if not getattr(segment, "removed", False)
    )
    if frames != shm_frames:
        findings.append(
            "frames: %+d physical frames leaked (now %d, shm holds %d)"
            % (frames - shm_frames, frames, shm_frames)
        )
    stats = sim.kernel.stats
    if stats["groups_created"] != stats["groups_freed"]:
        findings.append(
            "share-groups: %d created but only %d freed"
            % (stats["groups_created"], stats["groups_freed"])
        )
    if sim.kernel.live_procs:
        findings.append(
            "procs: %d still counted live after the run" % sim.kernel.live_procs
        )
    for queue in sim.machine.waitqueues:
        sema = queue.sema
        if queue.waiters or sema.nwaiters or sema.value:
            findings.append(
                "wait queue %s: %d banked claims, %d sleepers, "
                "%d unclaimed wakeups left"
                % (sema.name, queue.waiters, sema.nwaiters, sema.value)
            )
    return findings


def audit_leaks(sim) -> List[str]:
    """Post-run audit: the invariant pack plus :func:`check_leaks`."""
    return run_invariants(sim) + check_leaks(sim)
