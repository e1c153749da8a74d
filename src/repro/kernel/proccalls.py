"""Process management system calls: fork, sproc, exec, exit, wait,
signals, and address-space calls (sbrk/mmap/munmap).

Deviation from real UNIX, documented in DESIGN.md: simulated programs
are Python generators, which cannot be cloned mid-execution, so
``fork(entry, arg)`` and ``sproc(entry, shmask, arg)`` both start the
child at an entry point instead of returning twice.  Everything the
paper measures — address-space copying vs sharing, resource inheritance,
group membership — is unaffected.
"""

from __future__ import annotations

from repro.errors import (
    EAGAIN,
    ECHILD,
    EINTR,
    EINVAL,
    ENOEXEC,
    ENOMEM,
    EPERM,
    ESRCH,
    SysError,
)
from repro.fs.inode import IEXEC
from repro.kernel.flags import ALL_SYNC
from repro.kernel.signals import (
    SIGCHLD,
    SIG_DFL,
    SIG_IGN,
    UNCATCHABLE,
    check_signal_number,
)
from repro.mem.frames import PAGE_MASK, PAGE_SHIFT
from repro.mem.region import RegionType
from repro.share import prctl as prctl_mod
from repro.share import resources
from repro.share import sproc as sproc_mod
from repro.share import unshare as unshare_mod
from repro.share import vmshare
from repro.share.mask import PR_SADDR, PR_SFDS, inherit_mask, validate_mask
from repro.sim.effects import ExecImage as _ExecTaken
from repro.sim.effects import kdelay
from repro.sync.semaphore import Semaphore


def make_exit_status(code: int) -> int:
    """Encode a normal exit the way wait() reports it."""
    return (code & 0xFF) << 8


def make_signal_status(sig: int) -> int:
    """Encode death-by-signal."""
    return sig & 0x7F


def status_exited(status: int) -> bool:
    return status & 0xFF == 0


def status_code(status: int) -> int:
    return (status >> 8) & 0xFF


def status_signal(status: int) -> int:
    return status & 0x7F


class ProcSyscalls:
    """Kernel mixin: process lifecycle and VM calls."""

    # ------------------------------------------------------------------
    # creation

    def sys_fork(self, proc, entry, arg=0):
        """Create a copy-on-write child running ``entry(api, arg)``.

        Inside a share group this creates a process *outside* the group
        (the paper's rule), with the group's visible regions left as
        copy-on-write elements of the new process.
        """
        yield kdelay(self.costs.proc_alloc)
        if self.fail("fork.proc"):
            raise SysError(EAGAIN, "injected: process table full")
        sharing = vmshare.sharing_vm(proc)
        if sharing:
            # fork is on the paper's update-lock list: it changes what
            # the shared page tables point to (COW marking).
            yield from vmshare.update_acquire(proc)
        child_vm = proc.vm.dup_cow()
        yield kdelay(self._cow_image_cycles(child_vm))
        # Resident pages became read-only COW on the parent side too:
        # stale writable translations must go.
        if sharing:
            yield from vmshare.shootdown(self, proc)
            yield from vmshare.update_release(proc)
        else:
            self.machine.tlb_flush_asid(proc.vm.asid)
            yield kdelay(self.costs.tlb_flush_local)
        yield kdelay(self.costs.uarea_copy)
        uarea = None
        try:
            if self.fail("fork.uarea"):
                raise SysError(ENOMEM, "injected: u-area allocation failed")
            uarea = proc.uarea.fork_copy()
            child = self._new_proc(uarea, child_vm, proc.name + "+f", proc)
        except SysError:
            # The COW image holds frame references; put them back or the
            # frames leak.  The parent's pages just stay COW-marked until
            # its next write breaks them back to sole ownership.
            if uarea is not None:
                uarea.release()
            child_vm.teardown()
            raise
        self.stats["forks"] += 1
        self.trace("fork", proc.pid, "child=%d" % child.pid)
        self._start_child(child, entry, arg)
        return child.pid

    def sys_sproc(self, proc, entry, shmask: int, arg=0):
        """Create a share group member (paper section 5.1).

        Every step after the group exists can fail (injected or real);
        :meth:`_unwind_sproc` takes the partially built child apart in
        reverse order so a failed call leaves the group exactly as it
        was — ``s_refcnt``, the shared pregion list, frame counts and
        fd references all restored.  A mask with bits outside ``PR_SALL``
        fails before the group exists.
        """
        validate_mask(shmask)
        yield kdelay(self.costs.proc_alloc)
        if self.fail("sproc.proc"):
            raise SysError(EAGAIN, "injected: process table full")
        if self.fail("sproc.shaddr"):
            raise SysError(EAGAIN, "injected: no shared address block")
        shaddr = sproc_mod.ensure_group(self, proc)
        mask = inherit_mask(proc.p_shmask, shmask)
        child_vm = stack = uarea = child = None
        try:
            if mask & PR_SADDR:
                yield from shaddr.vm_lock.acquire_update(proc)
                try:
                    if self.fail("sproc.stack"):
                        raise SysError(ENOMEM, "injected: cannot carve child stack")
                    child_vm, stack = sproc_mod.build_child_vm(self, proc, mask)
                    yield kdelay(self.costs.region_create + self.costs.region_attach)
                finally:
                    yield from shaddr.vm_lock.release_update(proc)
            else:
                if self.fail("sproc.stack"):
                    raise SysError(ENOMEM, "injected: cannot carve child stack")
                child_vm, stack = sproc_mod.build_child_vm(self, proc, mask)
                yield kdelay(
                    self._cow_image_cycles(child_vm) + self.costs.region_create
                )
                self.machine.tlb_flush_asid(proc.vm.asid)
                yield kdelay(self.costs.tlb_flush_local)
            yield kdelay(self.costs.uarea_copy)
            if self.fail("sproc.uarea"):
                raise SysError(ENOMEM, "injected: u-area allocation failed")
            uarea = sproc_mod.child_uarea(proc, shaddr, mask)
            child = self._new_proc(uarea, child_vm, proc.name + "+s", proc)
            child.shaddr = shaddr
            child.p_shmask = mask
            shaddr.add_member(child)
            # From here on the child is a counted group member, which
            # the unwind detaches the way exit would.
            if self.fail("sproc.kstack"):
                raise SysError(ENOMEM, "injected: no kernel stack for child")
        except SysError:
            yield from self._unwind_sproc(
                proc, shaddr, mask, child_vm, stack, uarea, child
            )
            raise
        self.stats["sprocs"] += 1
        self.trace("sproc", proc.pid, "child=%d mask=%#x" % (child.pid, mask))
        self._start_child(child, entry, arg)
        return child.pid

    def _cow_image_cycles(self, vm) -> int:
        """What building a copy-on-write image costs: one pregion copy
        per pregion and one page-table entry per resident page."""
        resident = sum(pregion.region.resident_pages() for pregion in vm.private)
        return (
            self.costs.pregion_dup * len(vm.private)
            + self.costs.pt_copy_per_page * resident
        )

    def _unwind_sproc(
        self, proc, shaddr, mask, child_vm, stack, uarea, child=None
    ):
        """Generator: undo a partially built sproc child, newest piece first.

        Mirrors the exit path piece by piece: group membership
        (``s_refcnt``/``s_plink``), the proc-table entry, the u-area's
        file and directory references, and the child's address space —
        including a stack already carved into the *shared* pregion list,
        which every member could see.
        """
        if child is not None:
            yield from shaddr.s_listlock.acquire(proc)
            shaddr.remove_member(child)
            shaddr.s_listlock.release()
            child.shaddr = None
            child.p_shmask = 0
            child.state = child.ZOMBIE
            proc.children.remove(child)
            self.proc_table.remove(child)
            self.live_procs -= 1
        if uarea is not None:
            uarea.release()
        if child_vm is not None:
            if mask & PR_SADDR:
                yield from shaddr.vm_lock.acquire_update(proc)
                try:
                    shared_list = shaddr.shared_vm.pregions
                    if stack is not None and stack in shared_list:
                        shared_list.remove(stack)
                        stack.detach()
                finally:
                    yield from shaddr.vm_lock.release_update(proc)
            child_vm.teardown()

    # ------------------------------------------------------------------
    # exec

    def sys_exec(self, proc, path: str, arg=0, keep_group: bool = False):
        """Overlay a new program image; leaves the share group first.

        ``keep_group`` is the section 8 extension: the new image keeps
        its group membership for the *non-VM* resources (file sharing,
        scheduling as a unit) while getting a unique address space —
        "a group of unrelated programs managed as a whole for file
        sharing or scheduling purposes".
        """
        ua = proc.uarea
        inode = self.fs.namei(path, ua.cdir, ua.rdir, ua.cred())
        inode.access(ua.uid, ua.gid, IEXEC)
        if inode.program is None:
            raise SysError(ENOEXEC, path)
        image = self.programs.get(inode.program)
        if image is None:
            raise SysError(ENOEXEC, "unregistered program %r" % inode.program)
        yield kdelay(self.costs.exec_image)
        # exec removes the process from the share group *before*
        # overlaying the image (paper section 5.1: a secure environment
        # for the new program) — unless the extension asks to stay.
        proc.vm.teardown()
        if (
            keep_group
            and proc.shaddr is not None
            and proc.p_shmask & ~PR_SADDR
        ):
            proc.p_shmask &= ~PR_SADDR
        else:
            # No non-VM resources left to share (or no extension asked
            # for): membership would be pure bookkeeping, so leave.
            yield from self._leave_group(proc)
        proc.vm = self.build_image_vm(image, proc.vm.stack_max)
        ua.reset_handlers()
        proc.pending.clear()
        self.stats["execs"] += 1
        raise _ExecTaken(self._program_frame(proc, image.func, arg))

    # ------------------------------------------------------------------
    # exit and wait

    def sys_exit(self, proc, code: int = 0):
        yield from self.do_exit(proc, make_exit_status(code))

    def do_exit(self, proc, status: int):
        """Generator: release everything and become a zombie.  Never
        returns — the final effect blocks forever.

        A thread of a Mach-style task only tears the shared task
        resources down when it is the last thread out.
        """
        if proc.alarm_event is not None:
            proc.alarm_event.cancel()
            proc.alarm_event = None
        last_of_task = True
        if proc.task is not None:
            last_of_task = proc.task.remove(proc) == 0
            self.stats["thread_exits"] += 1
        if last_of_task:
            yield kdelay(self.costs.exit_teardown)
            proc.uarea.release()
            proc.vm.teardown()
            yield from self._leave_group(proc)
        else:
            # thread exit: just the kernel stack and proc entry go
            yield kdelay(self.costs.exit_teardown // 3)
        # orphaned children are inherited by init
        init = self.proc_table.get(1)
        for child in proc.children:
            child.parent = init
            if init is not None and init is not proc:
                init.children.append(child)
                if child.state is child.ZOMBIE:
                    init.child_wait.v()
        proc.children = []
        proc.exit_status = status
        proc.state = proc.ZOMBIE
        self.stats["exits"] += 1
        self.trace("exit", proc.pid, "status=%#x" % status)
        parent = proc.parent
        if parent is not None and parent.alive():
            self.psignal(parent, SIGCHLD)
            parent.child_wait.v()
        self.on_proc_exit(proc)
        yield from self._block_forever()

    @staticmethod
    def _block_forever():
        from repro.sim.effects import Block

        yield Block("zombie")
        raise AssertionError("zombie resumed")  # pragma: no cover

    def _leave_group(self, proc):
        """Generator: drop share group membership; free the block when last out."""
        shaddr = proc.shaddr
        if shaddr is None:
            return
        yield from shaddr.s_listlock.acquire(proc)
        remaining = shaddr.remove_member(proc)
        shaddr.s_listlock.release()
        proc.shaddr = None
        proc.p_shmask = 0
        proc.p_flag &= ~ALL_SYNC
        if remaining == 0:
            shaddr.free()
            self.stats["groups_freed"] += 1

    # ------------------------------------------------------------------
    # runtime unshare (a section 8 extension: prctl PR_UNSHARE / PR_SETSHMASK)

    def do_unshare(self, proc, value: int):
        """Generator: transactionally stop sharing the resources in
        ``value``; returns the new share mask (0 once the caller has left
        the group entirely).

        The copy-out order — ``s_fupdsema`` -> vm update lock ->
        ``s_listlock`` — is pinned by tests/test_lockdep.py.  Any failure
        before the commit unwinds through :meth:`_unwind_unshare` and
        leaves the caller exactly as it was: still a full member, with
        every staged private copy torn back down.
        """
        validate_mask(value)
        if proc.shaddr is None:
            raise SysError(EINVAL, "not in a share group")
        yield kdelay(self.costs.flag_batch_test)
        drop = value & proc.p_shmask
        if not drop:
            return proc.p_shmask
        shaddr = proc.shaddr
        self.stats["unshares"] += 1
        self.kstat.add("kernel", 0, "unshare_calls")
        self.pcount(proc, "unshare_calls")
        staged = {"fds": None, "vm": None}
        vm_locked = False
        # Holding the file-update semaphore for the whole transaction
        # keeps concurrent update_files() calls from mutating s_ofile
        # between the final sync and the commit.
        yield from shaddr.s_fupdsema.p(proc)
        try:
            try:
                # Catch up with any pending group updates first: the
                # staged private copies must be of the freshest state.
                yield from resources.sync_on_entry(self, proc)
                if drop & unshare_mod.MISC_BITS:
                    yield kdelay(self.costs.uarea_copy)
                    if self.fail("unshare.uarea"):
                        raise SysError(
                            ENOMEM, "injected: private u-area resources"
                        )
                if drop & PR_SFDS:
                    yield from unshare_mod.copy_out_fds(self, proc, staged)
                if drop & PR_SADDR and vmshare.sharing_vm(proc):
                    yield from shaddr.vm_lock.acquire_update(proc)
                    vm_locked = True
                    yield from unshare_mod.copy_out_aspace(self, proc, staged)
                    # Cloning marked resident shared pages COW on both
                    # sides: every member's stale writable translations
                    # must go while the update lock is still held.
                    yield from vmshare.shootdown(self, proc)
            except SysError:
                yield from self._unwind_unshare(proc, staged)
                raise
            unshare_mod.commit_unshare(self, proc, drop, staged)
            self.trace(
                "unshare", proc.pid,
                "drop=%#x mask=%#x" % (drop, proc.p_shmask),
            )
            if staged["vm"] is not None:
                # switching onto the private page tables / fresh ASID
                yield kdelay(self.costs.tlb_flush_local)
            if proc.p_shmask == 0:
                # Nothing shared any more: depart, under the same locks
                # the copy-out took (a last-out departure tears down the
                # shared pregion list, which needs the update lock we may
                # already hold).
                yield from self._leave_group(proc)
        finally:
            if vm_locked:
                yield from shaddr.vm_lock.release_update(proc)
            shaddr.s_fupdsema.v()
        return proc.p_shmask

    def _unwind_unshare(self, proc, staged):
        """Generator: undo a partially staged unshare, newest piece first.

        The mirror of :meth:`_unwind_sproc`.  Nothing was committed, so
        the caller is still a full group member and only the staged
        private copies are torn down.  Shared pages the copy-out already
        COW-marked keep their marks (harmless, exactly as in the fork
        unwind: the next write breaks them back to sole ownership), but
        stale writable translations for them must still be shot down.
        """
        vm = staged["vm"]
        if vm is not None:
            yield from vmshare.shootdown(self, proc)
            vm.teardown()
            staged["vm"] = None
        fresh = staged["fds"]
        if fresh is not None:
            fresh.close()
            staged["fds"] = None
        self.stats["unshare_unwinds"] += 1
        self.kstat.add("kernel", 0, "unshare_unwinds")
        self.pcount(proc, "unshare_unwinds")

    def sys_wait(self, proc):
        """Wait for a child to die; returns ``(pid, status)``."""
        while True:
            zombie = next(
                (child for child in proc.children if child.state is child.ZOMBIE),
                None,
            )
            if zombie is not None:
                proc.children.remove(zombie)
                self.proc_table.remove(zombie)
                proc.child_wait.cp()  # consume the matching wakeup if present
                yield kdelay(self.costs.flag_batch_test)
                return zombie.pid, zombie.exit_status
            if not proc.children:
                raise SysError(ECHILD)
            if self.fail("wait.sleep"):
                raise SysError(EINTR, "injected: signal before wait sleep")
            ok = yield from proc.child_wait.p(proc, interruptible=True)
            if not ok:
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # signals

    def sys_kill(self, proc, pid: int, sig: int):
        yield kdelay(self.costs.flag_batch_test)
        if not check_signal_number(sig) and sig != 0:
            raise SysError(EINVAL)
        target = self._target(proc, pid)
        if sig != 0:
            self.psignal(target, sig)
        return 0

    def sys_signal(self, proc, sig: int, handler):
        """Install a disposition; returns the previous one."""
        yield kdelay(self.costs.flag_batch_test)
        if not check_signal_number(sig) or sig in UNCATCHABLE:
            raise SysError(EINVAL)
        if handler not in (SIG_DFL, SIG_IGN) and not callable(handler):
            raise SysError(EINVAL)
        old = proc.uarea.handler(sig)
        proc.uarea.set_handler(sig, handler)
        if handler is SIG_IGN:
            proc.pending.discard(sig)
        return old

    def sys_pause(self, proc):
        """Sleep until a signal arrives; always returns EINTR.

        A signal that is already pending (posted while the caller was
        still in user mode on its way into the call) counts as having
        arrived: the call returns immediately rather than sleeping with
        the wakeup already consumed.
        """
        if proc.pending:
            yield kdelay(self.costs.flag_batch_test)
            raise SysError(EINTR)
        parking = Semaphore(self.machine, self.sched, 0, "pause")
        yield from parking.p(proc, interruptible=True)
        raise SysError(EINTR)

    # ------------------------------------------------------------------
    # address space calls

    def _data_pregion(self, proc):
        pregion, shared = proc.vm.find_by_type(RegionType.DATA)
        if pregion is None:
            raise SysError(EINVAL, "no data segment")
        return pregion, shared

    def sys_sbrk(self, proc, incr: int):
        """Grow or shrink the data segment; returns the old break.

        Page-granular (a documented simplification).  Inside a VM-sharing
        group this is an update-lock operation, and *shrinking* performs
        the synchronous all-CPU TLB shootdown of section 6.2 — the one
        genuinely expensive VM operation in the design.
        """
        pregion, shared = self._data_pregion(proc)
        pages = (abs(incr) + PAGE_MASK) >> PAGE_SHIFT if incr else 0
        old_brk = pregion.vhigh
        if pages == 0:
            yield kdelay(self.costs.flag_batch_test)
            return old_brk
        sharing = shared and vmshare.sharing_vm(proc)
        if sharing:
            yield from vmshare.update_acquire(proc)
        try:
            if incr > 0:
                if not pregion.can_grow_up(pages):
                    raise SysError(ENOMEM, "past the data segment ceiling")
                proc.vm.check_overlap(pregion.vhigh, pregion.vhigh + (pages << PAGE_SHIFT))
                pregion.grow_up(pages)
                yield kdelay(self.costs.region_attach)
            else:
                if pages > pregion.region.npages:
                    raise SysError(EINVAL, "shrink below data start")
                # Only the vanishing tail needs invalidating; the rest of
                # the space (and everyone else's TLB entries) stays warm.
                vpn_hi = pregion.vpn_high
                vpn_lo = vpn_hi - pages
                if sharing:
                    yield from vmshare.shootdown_range(self, proc, vpn_lo, vpn_hi)
                else:
                    yield from self.tlb_invalidate_range(proc, vpn_lo, vpn_hi)
                pregion.shrink(pages)
                yield kdelay(self.costs.region_attach)
        finally:
            if sharing:
                yield from vmshare.update_release(proc)
        return old_brk

    def sys_mmap(self, proc, nbytes: int):
        """Map anonymous pages; returns the new base address.

        Visible to the whole group immediately when the VM is shared.
        """
        if nbytes <= 0:
            raise SysError(EINVAL)
        if self.fail("mmap.region"):
            raise SysError(ENOMEM, "injected: no address range available")
        base = yield from vmshare.attach_mapping(self, proc, nbytes, None)
        self.stats["mmaps"] += 1
        return base

    def sys_munmap(self, proc, vaddr: int):
        """Unmap a whole mapping created by mmap (partial unmaps: EINVAL)."""
        yield from vmshare.detach_mapping(self, proc, vaddr)
        self.stats["munmaps"] += 1
        return 0

    # ------------------------------------------------------------------
    # identity and control

    def sys_getpid(self, proc):
        yield kdelay(self.costs.flag_batch_test)
        return proc.pid

    def sys_getppid(self, proc):
        yield kdelay(self.costs.flag_batch_test)
        return proc.parent.pid if proc.parent is not None else 0

    # ------------------------------------------------------------------
    # blockproc/unblockproc (section 8 extension: "a whole process group
    # could be conveniently blocked or unblocked"; IRIX later shipped
    # exactly this pair alongside sproc)

    def _target(self, proc, pid: int):
        """The live process ``pid`` that ``proc`` may signal, block or
        unblock: ESRCH if there is none, EPERM unless ``proc`` is root
        or has its uid."""
        target = self.proc_table.get(pid)
        if target is None or not target.alive():
            raise SysError(ESRCH)
        if proc.uarea.uid != 0 and proc.uarea.uid != target.uarea.uid:
            raise SysError(EPERM)
        return target

    def _block_sema(self, proc):
        if proc.block_sema is None:
            proc.block_sema = Semaphore(
                self.machine, self.sched, 0, "block:%d" % proc.pid
            )
        return proc.block_sema

    def blocked_frame(self, proc):
        """Generator the CPU parks a blocked process in (user boundary)."""
        while proc.block_count < 0:
            yield from self._block_sema(proc).p(proc)

    def sys_blockproc(self, proc, pid: int):
        """Decrement the target's block count; below zero it suspends at
        its next user-mode boundary (immediately when blocking itself)."""
        yield kdelay(self.costs.flag_batch_test)
        target = self._target(proc, pid)
        target.block_count -= 1
        if target is proc and proc.block_count < 0:
            yield from self.blocked_frame(proc)
        return 0

    def sys_unblockproc(self, proc, pid: int):
        yield kdelay(self.costs.flag_batch_test)
        target = self._target(proc, pid)
        target.block_count += 1
        if target.block_count >= 0 and target.block_sema is not None:
            target.block_sema.v_all()
        return 0

    def sys_alarm(self, proc, cycles: int):
        """Schedule SIGALRM ``cycles`` from now (0 cancels).

        Cycle-denominated rather than second-denominated — the
        simulation has no seconds.  Returns the cycles that remained on
        any previous alarm.
        """
        yield kdelay(self.costs.flag_batch_test)
        remaining = 0
        if proc.alarm_event is not None:
            # a fired alarm is due no later than now: nothing remains
            # and the cancel finds no entry
            remaining = max(proc.alarm_event.time - self.engine.now, 0)
            proc.alarm_event.cancel()
            proc.alarm_event = None
        if cycles > 0:
            from repro.kernel.signals import SIGALRM

            proc.alarm_event = self.engine.schedule(
                cycles, lambda: self.psignal(proc, SIGALRM)
            )
        return remaining

    def sys_nice(self, proc, incr: int):
        yield kdelay(self.costs.flag_batch_test)
        if incr < 0 and proc.uarea.uid != 0:
            raise SysError(EPERM)
        proc.pri = max(0, min(39, proc.pri + incr))
        return proc.pri

    def sys_prctl(self, proc, option: int, value: int = 0, value2: int = 0):
        result = yield from prctl_mod.prctl(self, proc, option, value, value2)
        return result
