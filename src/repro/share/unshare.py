"""Transactional runtime unshare: tearing resources out of a share group.

``prctl(PR_UNSHARE, mask)`` — and the symmetric tighten-only
``PR_SETSHMASK`` — is the reverse of ``sproc()``: the calling member
stops sharing the named resources and receives private copies (a section 8
extension; Linux's ``unshare(2)`` is the direct descendant of this
interface).  Every copy-out step can fail, injected or real, so the work
is *staged*: fresh private structures are built first while the shared
ones stay untouched, then installed in one host-atomic commit.  On any
failure ``Kernel._unwind_unshare`` tears the staged pieces down
newest-first — the mirror of ``_unwind_sproc`` — and the caller is left
exactly as it was: still a full member, invariants clean.

Copy-out rules, per resource class:

* **file descriptors** (``PR_SFDS``): a fresh descriptor table is
  populated slot by slot, each copied file gaining a reference (the
  ``unshare.fds`` failpoint fires per slot).  On commit the old table's
  references are released through the kernel's dispose routine; the
  group's authoritative ``s_ofile`` copy is untouched, so the other
  members keep sharing.
* **miscellaneous u-area values** (``PR_SULIMIT``/``PR_SUMASK``/
  ``PR_SDIR``/``PR_SID``): the u-area already holds per-process copies —
  "sharing" them is the sync-on-entry protocol — so privatization is a
  final ``sync_on_entry`` followed by dropping the mask and sync bits.
  The ``unshare.uarea`` failpoint models the private resource-block
  allocation a real kernel would perform here.
* **the address space** (``PR_SADDR``): the big one.  A fresh
  :class:`~repro.mem.addrspace.AddressSpace` with its own ASID is built
  under the group's update lock (``unshare.aspace``); every shared
  pregion is cloned copy-on-write into it (``unshare.pregion`` per
  clone) exactly like a fork image, the private PRDA moves across on
  commit, and the group's ASID is shot down on every CPU because
  resident pages just became COW on *both* sides.  The member's old
  shared stack pregion stays on the shared list, exactly as it would if
  the member exited; the detaching process keeps running on its private
  clone and ``s_refcnt`` is only dropped when the mask reaches zero and
  the member leaves the group.
"""

from __future__ import annotations

from repro.errors import ENOMEM, SysError
from repro.fs.fdtable import FDTable
from repro.share.mask import PR_SDIR, PR_SID, PR_SULIMIT, PR_SUMASK
from repro.share.resources import RESOURCES
from repro.sim.effects import kdelay

#: resource bits privatized by dropping mask+sync bits alone — their
#: authoritative values already live per-process in the u-area
MISC_BITS = PR_SULIMIT | PR_SUMASK | PR_SDIR | PR_SID


def copy_out_fds(kernel, proc, staged):
    """Generator: stage a private descriptor table, slot by slot.

    Each copied slot takes its own reference, so the staged table is
    self-contained from the first entry on — ``staged['fds']`` is set
    *before* the loop so a mid-copy failure unwinds the partial table.
    """
    table = proc.uarea.fdtable
    fresh = FDTable(len(table.slots))
    fresh.inject = table.inject
    staged["fds"] = fresh
    copied = 0
    for fd, slot in enumerate(table.slots):
        if slot is None:
            continue
        if kernel.fail("unshare.fds"):
            raise SysError(ENOMEM, "injected: private fd table slot")
        fresh.slots[fd] = slot.hold()
        copied += 1
    yield kdelay(kernel.costs.resource_sync + copied)
    kernel.kstat.add("kernel", 0, "unshare_fds_copied", copied)


def copy_out_aspace(kernel, proc, staged):
    """Generator: stage a private address space (update lock held).

    Every shared pregion is cloned copy-on-write.
    """
    if kernel.fail("unshare.aspace"):
        raise SysError(ENOMEM, "injected: private address space allocation")
    # Carving continues where the group's cursors left off, as in a
    # fork child of a sharing parent.
    vm = proc.vm.empty_copy()
    staged["vm"] = vm
    costs = kernel.costs
    copied = 0
    for original in proc.vm.shared.pregions:
        if kernel.fail("unshare.pregion"):
            raise SysError(ENOMEM, "injected: pregion copy-out")
        vm.attach_private(original.dup_cow())
        copied += 1
        yield kdelay(
            costs.pregion_dup
            + costs.pt_copy_per_page * original.region.resident_pages()
        )
    kernel.kstat.add("kernel", 0, "unshare_pregions_copied", copied)


def commit_unshare(kernel, proc, drop: int, staged) -> None:
    """Host-atomic commit: install the staged structures, clear the bits.

    No yields — a commit can never be half observed by another member.
    """
    vm = staged["vm"]
    if vm is not None:
        # The full-ASID shootdown just before this commit purged the
        # group-ASID translations on every CPU, so swapping spaces here
        # needs no extra flush: first touch refills under the new ASID.
        keep = list(proc.vm.private)
        proc.vm.private = []  # clears owner backrefs before the move
        for pregion in keep:
            vm.attach_private(pregion)
        proc.vm = vm
    fresh = staged["fds"]
    if fresh is not None:
        old = proc.uarea.fdtable.close_all()
        proc.uarea.fdtable = fresh
        for file in old:
            kernel.dispose_file(file)
    for resource in RESOURCES:
        if drop & resource.bit:
            proc.p_flag &= ~resource.sync
    proc.p_shmask &= ~drop
