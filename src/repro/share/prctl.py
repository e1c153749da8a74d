"""The ``prctl()`` system call (paper section 5.2), plus extensions.

Paper-defined options:

``PR_MAXPROCS``
    Limit on processes per user.
``PR_MAXPPROCS``
    Number of processes the system can run in parallel (the CPU count) —
    parallel programs size their self-scheduling pools with this.
``PR_SETSTACKSIZE`` / ``PR_GETSTACKSIZE``
    Maximum stack size for the current process; inherited across
    ``sproc()`` and ``fork()`` and used to lay out the shared VM image.
    A size whose first stack slot would reach into the map arena is
    ``EINVAL``.

Extensions implemented from the paper's section 8 (future directions),
clearly marked as such:

``PR_GETNSHARE``
    Number of members in the caller's share group (0 if none).
``PR_SETGANG`` / ``PR_GETGANG``
    Gang-scheduling hint for the whole group.
``PR_UNSHARE``
    Transactionally stop sharing the resources named by the mask
    argument — including ``PR_SADDR`` (a copy-on-write detach onto a
    fresh private address space).  Dropping the last shared bit leaves
    the group.  Bits outside ``PR_SALL`` are ``EINVAL``, as for every
    share mask (:func:`~repro.share.mask.validate_mask`).
``PR_SETSHMASK``
    Install a new share mask; strictly tighten-only (the new mask must
    be a subset of the current one — widening is ``EINVAL``, mirroring
    the strict-inheritance rule for ``sproc``).  Implemented as
    ``PR_UNSHARE`` of the difference.
``PR_GETSHMASK``
    The caller's current share mask.
"""

from __future__ import annotations

from repro.errors import EINVAL, EPERM, ESRCH, SysError
from repro.mem import layout
from repro.mem.frames import PAGE_SIZE
from repro.share.mask import validate_mask
from repro.sim.effects import kdelay

PR_MAXPROCS = 1
PR_MAXPPROCS = 2
PR_SETSTACKSIZE = 3
PR_GETSTACKSIZE = 4

# --- extensions (not in the 1988 interface) ---------------------------
PR_GETNSHARE = 100
PR_SETGANG = 101
PR_GETGANG = 102
PR_UNSHARE = 103
PR_GETSHMASK = 104
#: set every member's scheduling priority at once (section 8: "the
#: priority of the whole group could be raised or lowered")
PR_SETGROUPPRI = 105
#: suspend / resume every *other* member (section 8: "a whole process
#: group could be conveniently blocked or unblocked")
PR_BLOCKGRP = 106
PR_UNBLKGRP = 107
#: tighten-only runtime replacement of the whole share mask
PR_SETSHMASK = 108

#: smallest stack reservation prctl will accept
MIN_STACK = 4 * PAGE_SIZE
#: largest: slot 0's reservation ends where the map arena does
MAX_STACK = layout.STACK_TOP - layout.MAP_LIMIT


def prctl(kernel, proc, option: int, value: int = 0, value2: int = 0):
    """Generator implementing the prctl dispatch."""
    yield kdelay(kernel.costs.flag_batch_test)
    if option == PR_MAXPROCS:
        return kernel.proc_table.max_procs
    if option == PR_MAXPPROCS:
        return kernel.machine.ncpus
    if option == PR_GETSTACKSIZE:
        return proc.uarea.stack_max
    if option == PR_SETSTACKSIZE:
        if value < MIN_STACK:
            raise SysError(EINVAL, "stack size too small")
        if value > MAX_STACK:
            raise SysError(EINVAL, "stack size would reach the map arena")
        proc.uarea.stack_max = int(value)
        return int(value)
    if option == PR_GETNSHARE:
        return proc.shaddr.s_refcnt if proc.shaddr is not None else 0
    if option == PR_SETGANG:
        if proc.shaddr is None:
            raise SysError(EINVAL, "not in a share group")
        proc.shaddr.gang = bool(value)
        return 0
    if option == PR_GETGANG:
        if proc.shaddr is None:
            return 0
        return 1 if proc.shaddr.gang else 0
    if option == PR_UNSHARE:
        result = yield from kernel.do_unshare(proc, value)
        return result
    if option == PR_SETSHMASK:
        validate_mask(value)
        if proc.shaddr is None:
            raise SysError(EINVAL, "not in a share group")
        if value & ~proc.p_shmask:
            raise SysError(EINVAL, "PR_SETSHMASK may only tighten the mask")
        result = yield from kernel.do_unshare(proc, proc.p_shmask & ~value)
        return result
    if option == PR_GETSHMASK:
        return proc.p_shmask if proc.shaddr is not None else 0
    if option in (PR_BLOCKGRP, PR_UNBLKGRP):
        shaddr = proc.shaddr
        if shaddr is None:
            raise SysError(EINVAL, "not in a share group")
        for member in shaddr.other_members(proc):
            # The snapshot can race a member's exit or an unshare that
            # drops it out of the group: skip anyone no longer a live
            # member, and tolerate an ESRCH from the call itself.
            if not member.alive() or member.shaddr is not shaddr:
                continue
            try:
                if option == PR_BLOCKGRP:
                    yield from kernel.sys_blockproc(proc, member.pid)
                else:
                    yield from kernel.sys_unblockproc(proc, member.pid)
            except SysError as exc:
                if exc.errno != ESRCH:
                    raise
        return 0
    if option == PR_SETGROUPPRI:
        if proc.shaddr is None:
            raise SysError(EINVAL, "not in a share group")
        if not 0 <= value <= 39:
            raise SysError(EINVAL, "priority out of range")
        if value < proc.pri and proc.uarea.uid != 0:
            raise SysError(EPERM, "only root may raise priority")
        for member in proc.shaddr.members():
            member.pri = int(value)
            kernel.sched.reprioritize(member)
        return int(value)
    raise SysError(EINVAL, "unknown prctl option %d" % option)
