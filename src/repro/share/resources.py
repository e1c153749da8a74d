"""Non-VM resource sharing: the sync-on-kernel-entry machinery.

Paper section 6.3.  Unlike virtual memory, resources such as the open
file table live in the u-area and are invisible outside the kernel, so
they only need to be consistent when a member *enters* the kernel.  The
protocol:

1. A member modifying a shared resource first checks its own
   ``p_shmask`` to see that it shares it; then takes the block's update
   lock, re-synchronizes itself if its own sync bits are set (the
   "second updater" race in the paper), applies the modification to its
   u-area, pushes the new value into the block's authoritative copy, and
   finally sets the per-resource sync bit in every other sharing
   member's ``p_flag``.
2. At kernel entry every member's sync bits are tested *in a single
   batched check*; only when one is set does :func:`sync_on_entry` run
   and pull the changed resources from the block back into the u-area.

:data:`RESOURCES` lists the five non-VM resources once, each with its
share mask bit, its sync bit and the pull/push pair that copies it
between a u-area and the block.  Group seeding, ``sproc`` children,
both update protocols, sync-on-entry, unshare's commit and the
invariant checker all walk it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.kernel import flags
from repro.share import mask as sm
from repro.sim.effects import kdelay


class Resource(NamedTuple):
    """One shared non-VM resource."""

    name: str  #: the key of the block's ``updates`` count
    bit: int  #: the share mask bit that shares it
    sync: int  #: the ``p_flag`` bit that marks a member's copy stale
    pull: Callable  #: ``pull(uarea, block, dispose)``: block -> u-area
    push: Callable  #: ``push(uarea, block, dispose)``: u-area -> block


def _pull_fds(ua, block, dispose):
    ua.fdtable.sync_from(block.s_ofile, dispose=dispose)


def _push_fds(ua, block, dispose):
    block.update_ofile(ua.fdtable, dispose=dispose)


def _pull_dir(ua, block, dispose):
    ua.set_cdir(block.s_cdir)
    ua.set_rdir(block.s_rdir)


def _push_dir(ua, block, dispose):
    block.set_dirs(ua.cdir, ua.rdir)


def _pull_id(ua, block, dispose):
    ua.uid, ua.gid = block.s_uid, block.s_gid


def _push_id(ua, block, dispose):
    block.s_uid, block.s_gid = ua.uid, ua.gid


def _pull_umask(ua, block, dispose):
    ua.cmask = block.s_cmask


def _push_umask(ua, block, dispose):
    block.s_cmask = ua.cmask


def _pull_ulimit(ua, block, dispose):
    ua.ulimit = block.s_limit


def _push_ulimit(ua, block, dispose):
    block.s_limit = ua.ulimit


FDS = Resource("fds", sm.PR_SFDS, flags.SFDSYNC, _pull_fds, _push_fds)
DIR = Resource("dir", sm.PR_SDIR, flags.SDIRSYNC, _pull_dir, _push_dir)
ID = Resource("id", sm.PR_SID, flags.SIDSYNC, _pull_id, _push_id)
UMASK = Resource("umask", sm.PR_SUMASK, flags.SUMASKSYNC, _pull_umask, _push_umask)
ULIMIT = Resource("ulimit", sm.PR_SULIMIT, flags.SULIMITSYNC, _pull_ulimit, _push_ulimit)

#: every shared non-VM resource, in the order sync-on-entry pulls them
RESOURCES = (FDS, DIR, ID, UMASK, ULIMIT)


def sync_on_entry(kernel, proc):
    """Generator: copy flagged resources from the shaddr into the u-area.

    Called from the syscall trampoline only when the batched flag test
    fired.  Charges one ``resource_sync`` per resource brought up to
    date.
    """
    shaddr = proc.shaddr
    bits = proc.p_flag & flags.ALL_SYNC
    proc.p_flag &= ~flags.ALL_SYNC
    if shaddr is None or not bits:
        return 0
    cost = kernel.costs.resource_sync
    synced = 0
    for resource in RESOURCES:
        if bits & resource.sync:
            yield kdelay(cost)
            resource.pull(proc.uarea, shaddr, kernel.dispose_file)
            synced += 1
    shaddr.syncs += synced
    return synced


def _publish(kernel, proc, resource) -> int:
    """Push the updater's new value into the block, count the update and
    flag every *other* sharing member for resynchronization.

    Returns the number of members flagged (the update cost scales with
    group size — experiment E3 measures this).
    """
    shaddr = proc.shaddr
    resource.push(proc.uarea, shaddr, kernel.dispose_file)
    shaddr.updates[resource.name] += 1
    flagged = 0
    for member in shaddr.other_members(proc):
        if member.p_shmask & resource.bit:
            member.p_flag |= resource.sync
            flagged += 1
    return flagged


def update_misc(kernel, proc, resource: Resource, apply_fn):
    """Generator: the modification protocol for spinlock-guarded resources
    (directories, ids, umask, ulimit); returns ``apply_fn()``'s result.

    ``apply_fn()`` changes the caller's u-area only; it runs with
    ``s_rupdlock`` held, and the new value then reaches the block.
    """
    shaddr = proc.shaddr
    yield from shaddr.s_rupdlock.acquire(proc)
    try:
        # The lock stopped us while someone else updated: sync first so
        # we do not overwrite their change with stale values.
        yield from sync_on_entry(kernel, proc)
        result = apply_fn()
        flagged = _publish(kernel, proc, resource)
        yield kdelay(kernel.costs.resource_sync + flagged)
        return result
    finally:
        shaddr.s_rupdlock.release()


def update_files(kernel, proc, apply_fn):
    """Generator: the modification protocol for the open file table.

    File updates can block (an ``open`` may sleep on I/O), so they are
    single-threaded through the sleeping semaphore ``s_fupdsema`` rather
    than a spin lock.  ``apply_fn()`` performs the descriptor-table
    change and returns its result; the refreshed table is then copied
    into ``s_ofile`` and the other members flagged.
    """
    shaddr = proc.shaddr
    yield from shaddr.s_fupdsema.p(proc)
    try:
        yield from sync_on_entry(kernel, proc)
        result = yield from apply_fn()
        flagged = _publish(kernel, proc, FDS)
        yield kdelay(kernel.costs.resource_sync + flagged)
        return result
    finally:
        shaddr.s_fupdsema.v()
