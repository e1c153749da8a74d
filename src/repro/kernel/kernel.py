"""The kernel: boot, the syscall trampoline, signals, process start and exit.

This class composes the mixins (fault handling, process calls, file
calls, SysV IPC, sockets, Mach-style threads) into the complete simulated
System V.3 kernel with share-group support.

Design goals carried over from the paper (section 6):

1. correct on both uniprocessors and multiprocessors — everything is
   driven by the same event engine regardless of CPU count;
2. kernel-mode synchronization works even when members are not runnable —
   shared state lives in the shared address block with its own reference
   counts, never in another process's u-area;
3. the overall kernel structure is unchanged — share groups hook the
   fork path, the fault path and the syscall entry path only;
4. no penalty for normal processes — the only added cost on the syscall
   path is the single batched ``p_flag`` test, inline in the trampoline
   (:meth:`Kernel.syscall`); even that disappears when
   ``share_groups_enabled=False``, the configuration experiment E2
   compares against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import SimulationError, SysError
from repro.fs.fsys import FileSystem
from repro.ipc.syscalls import IPCSyscalls
from repro.kernel.fault import FaultMixin
from repro.kernel.filecalls import FileSyscalls
from repro.kernel.flags import ALL_SYNC
from repro.kernel.proc import Proc, ProcTable
from repro.kernel.proccalls import ProcSyscalls, make_exit_status, make_signal_status
from repro.kernel.sched import make_scheduler
from repro.kernel.signals import (
    Action,
    SIG_DFL,
    SIG_IGN,
    SIGKILL,
    UNCATCHABLE,
    default_action,
)
from repro.kernel.uarea import UArea
from repro.kernel.usync import UsyncSyscalls
from repro.mem import layout
from repro.mem.addrspace import AddressSpace
from repro.mem.pregion import Growth, PROT_RW, PROT_RX
from repro.mem.region import RegionType
from repro.share import resources
from repro.sim.effects import kdelay, udelay
from repro.sync.sharedlock import SharedReadLock
from repro.sync.semaphore import Semaphore
from repro.threads.syscalls import ThreadSyscalls

#: offset of ``errno`` within the PRDA (the C library convention here)
ERRNO_OFFSET = 0

#: default image segment sizes
DEFAULT_TEXT = 64 * 1024
DEFAULT_DATA = 128 * 1024


class ProgramImage:
    """A registered executable: an entry generator plus segment sizes."""

    def __init__(
        self,
        name: str,
        func: Callable,
        text_bytes: int = DEFAULT_TEXT,
        data_bytes: int = DEFAULT_DATA,
    ):
        self.name = name
        self.func = func
        self.text_bytes = text_bytes
        self.data_bytes = data_bytes

    def __repr__(self) -> str:  # pragma: no cover
        return "<ProgramImage %s>" % self.name


class Kernel(
    FaultMixin, ProcSyscalls, FileSyscalls, IPCSyscalls, ThreadSyscalls,
    UsyncSyscalls,
):
    """The simulated kernel."""

    def __init__(
        self,
        machine,
        share_groups_enabled: bool = True,
        batched_flag_test: bool = True,
        vm_lock_factory=SharedReadLock,
        scheduler="percpu",
    ):
        self.machine = machine
        self.engine = machine.engine
        self.costs = machine.costs
        self.share_groups_enabled = share_groups_enabled
        self.batched_flag_test = batched_flag_test
        self.vm_lock_factory = vm_lock_factory

        self.tracer = None  #: optional repro.sim.trace.Tracer
        self.kstat = machine.kstat  #: the machine's kstat counter registry
        self.inject = machine.inject  #: the machine's failpoint registry
        # bound kstat handles for the syscall trampoline
        self._kernel_ks = self.kstat.counters("kernel", 0)
        self._syscall_cycles = self.kstat.histogram("kernel", 0, "syscall_cycles")
        #: ``"syscall.<handler>"`` kstat keys, built once per handler name
        self._syscall_keys: Dict[str, str] = {}
        # fixed delays, bound once (costs never change after boot): the
        # trampoline's, a one-word user load or store's, and an atomic's
        costs = self.costs
        self._entry_delay = kdelay(costs.syscall_entry)
        self._exit_delay = kdelay(costs.syscall_exit)
        self._flag_batch_delay = kdelay(costs.flag_batch_test)
        self._flag_single_delay = kdelay(costs.flag_single_test)
        self._word_delay = udelay(costs.mem_access + costs.mem_per_word)
        self._cas_delay = udelay(costs.cas)
        self.fs = FileSystem()
        self.sched = make_scheduler(scheduler, machine)
        self.sched.kernel = self
        self.proc_table = ProcTable()
        self.programs: Dict[str, ProgramImage] = {}
        self.live_procs = 0
        self.init_ipc()
        self.init_usync()
        self._make_devices()

        self.stats: Dict[str, int] = {
            key: 0
            for key in (
                "syscalls", "syscall_errors", "faults", "segv", "stack_grows",
                "forks", "sprocs", "execs", "exits", "groups_created",
                "groups_freed", "shootdowns", "signals_posted",
                "signals_delivered", "signal_deaths", "opens", "pipes",
                "mmaps", "munmaps", "bytes_read", "bytes_written",
                "thread_creates", "thread_exits", "sync_entries", "oom_kills",
                "uwaits", "uwakes", "unshares", "unshare_unwinds",
            )
        }

        for cpu in machine.cpus:
            cpu.kernel = self

    def _make_devices(self) -> None:
        """Populate /dev with the standard pseudo-devices."""
        from repro.fs.device import NullDevice, ZeroDevice
        from repro.fs.inode import InodeType

        dev_dir = self.fs.mkdir_p("/dev")
        for name, device in (("null", NullDevice()), ("zero", ZeroDevice())):
            node = self.fs.create(dev_dir, name, InodeType.CHR, 0o666)
            node.device = device

    # ------------------------------------------------------------------
    # observability

    def trace(self, kind: str, pid: int, detail: str = "", ph: str = "i",
              cpu=None) -> None:
        """Record a trace event; a no-op when no tracer is attached.

        The single hook-point helper.  The dispatch and syscall paths
        test ``self.tracer is not None`` inline first, so an untraced
        run does not pay for the call.
        """
        if self.tracer is not None:
            self.tracer.record(kind, pid, detail, ph=ph, cpu=cpu)

    def fail(self, site: str) -> bool:
        """Did the failpoint at ``site`` fire?  Host-side, charges nothing."""
        return self.inject.fire(site)

    def pcount(self, proc, name: str, n: int = 1) -> None:
        """Bump a per-process kstat counter (and the group's, if any).

        The proc's scope handle is bound by ``_new_proc``; the group's
        where ``sproc`` numbers the group.
        """
        proc.ks[name] += n
        if proc.shaddr is not None:
            proc.shaddr.ks[name] += n

    # ------------------------------------------------------------------
    # programs and boot

    def register_program(
        self,
        name: str,
        func: Callable,
        text_bytes: int = DEFAULT_TEXT,
        data_bytes: int = DEFAULT_DATA,
        path: Optional[str] = None,
    ) -> ProgramImage:
        """Register an executable image; optionally bind it at ``path``."""
        image = ProgramImage(name, func, text_bytes, data_bytes)
        self.programs[name] = image
        if path is not None:
            self.fs.add_program(path, name)
        return image

    def build_image_vm(
        self, image: ProgramImage, stack_max: int = layout.DEFAULT_STACK_MAX
    ) -> AddressSpace:
        """A fresh standalone address space for a program image."""
        vm = AddressSpace(self.machine)
        vm.stack_max = stack_max
        vm.map_segment(layout.PRDA_BASE, layout.PRDA_SIZE, RegionType.PRDA, PROT_RW)
        vm.map_segment(layout.TEXT_BASE, image.text_bytes, RegionType.TEXT, PROT_RX)
        data_ceiling = (layout.MAP_BASE - layout.DATA_BASE) >> 12
        vm.map_segment(
            layout.DATA_BASE,
            image.data_bytes,
            RegionType.DATA,
            PROT_RW,
            growth=Growth.UP,
            max_pages=data_ceiling,
        )
        vm.carve_stack(shared=False)
        return vm

    def spawn(
        self,
        func: Callable,
        arg=0,
        name: str = "init",
        uid: int = 0,
        gid: int = 0,
        image: Optional[ProgramImage] = None,
    ) -> Proc:
        """Create and start a top-level process (host-side, no parent)."""
        image = image or ProgramImage(name, func)
        uarea = UArea(self.fs.root)
        uarea.uid = uid
        uarea.gid = gid
        proc = self._new_proc(uarea, self.build_image_vm(image), name)
        self._start_child(proc, func, arg)
        return proc

    def _new_proc(
        self, uarea: UArea, vm, name: str, parent: Optional[Proc] = None
    ) -> Proc:
        """A proc entry for ``uarea`` and ``vm``, linked under ``parent``;
        a full process table fails EAGAIN before anything is built."""
        pid = self.proc_table.alloc_pid()
        uarea.fdtable.inject = self.machine.inject
        proc = Proc(pid, uarea, vm, name=name)
        if parent is not None:
            proc.parent = parent
            parent.children.append(proc)
        proc.ks = self.kstat.counters("proc", pid)
        proc.child_wait = Semaphore(self.machine, self.sched, 0, "wait:%d" % pid)
        proc.api = self.make_api(proc)
        self.proc_table.insert(proc)
        self.live_procs += 1
        return proc

    def make_api(self, proc: Proc):
        from repro.kernel.syscalls import UserAPI

        return UserAPI(self, proc)

    def _program_frame(self, proc: Proc, func: Callable, arg):
        """The bottom frame of a process: the program's own generator.

        When it returns, the CPU exits the process in the same event
        (:meth:`exit_generator`).  A program that is not a generator
        function gets a frame that fails at its first dispatch.
        """
        body = func(proc.api, arg)
        if hasattr(body, "send"):
            return body
        return self._not_a_program(func, body)

    @staticmethod
    def _not_a_program(func: Callable, body):
        raise SimulationError(
            "program %r is not a generator function: simulated "
            "programs must contain a yield (e.g. 'yield from "
            "api.getpid()'); it returned %r instead"
            % (getattr(func, "__name__", func), body)
        )
        yield  # pragma: no cover - makes this a generator function

    def _start_child(self, child: Proc, entry: Callable, arg) -> None:
        child.frames = [self._program_frame(child, entry, arg)]
        self.sched.wakeup(child)

    def on_proc_exit(self, proc: Proc) -> None:
        self.live_procs -= 1

    # ------------------------------------------------------------------
    # the syscall trampoline

    def syscall(self, proc: Proc, handler):
        """Generator: kernel entry, sync check, handler, signal delivery.

        The share-group sync-on-entry test (section 6.3) is inline: with
        batching, one test of the collected ``p_flag`` bits; the
        unbatched ablation (experiment E11) pays one test per resource
        bit instead, which is what the paper's scheme replaced.  Either
        way the synchronization routine runs only when a bit is set.

        Failing handlers raise :class:`SysError`; the trampoline stores
        the error number in the PRDA ``errno`` slot and returns -1,
        following the System V convention.
        """
        name = handler.__name__
        key = self._syscall_keys.get(name)
        if key is None:
            key = self._syscall_keys[name] = "syscall." + name
        proc.syscalls += 1
        self.stats["syscalls"] += 1
        entered = self.engine.now
        self._kernel_ks["syscalls"] += 1
        # pcount(proc, key), inline: this bump is on every syscall
        proc.ks[key] += 1
        if proc.shaddr is not None:
            proc.shaddr.ks[key] += 1
        if self.tracer is not None:
            self.trace("syscall", proc.pid, name, ph="B")
        proc.in_kernel = True
        yield self._entry_delay
        if self.share_groups_enabled:
            if self.batched_flag_test:
                yield self._flag_batch_delay
            else:
                for _resource in resources.RESOURCES:
                    yield self._flag_single_delay
            if proc.p_flag & ALL_SYNC:
                self.stats["sync_entries"] += 1
                self.pcount(proc, "sync_entries")
                yield from resources.sync_on_entry(self, proc)
        inject = self.inject
        if inject.armed and inject.fire("syscall.entry"):
            # Abrupt-kill injection: the process dies at the boundary
            # before the handler starts, as a SIGKILL racing the trap
            # would have it.  deliver_pending never returns.
            self.psignal(proc, SIGKILL)
            yield from self.deliver_pending(proc)
        try:
            ret = yield from handler
        except SysError as err:
            self.seterrno(proc, err.errno)
            self.stats["syscall_errors"] += 1
            self.pcount(proc, "syscall_errors")
            ret = -1
        finally:
            proc.in_kernel = False
            self._syscall_cycles.add(self.engine.now - entered)
            if self.tracer is not None:
                self.trace("syscall", proc.pid, name, ph="E")
        yield self._exit_delay
        if inject.armed and inject.fire("syscall.exit"):
            # Abrupt-kill injection at the return boundary: the handler's
            # work is complete and unwound; the pending check below
            # delivers the kill.
            self.psignal(proc, SIGKILL)
        # (proc.pending._pending: the raw set, as in the CPU's boundary
        # precheck, so a syscall with nothing pending makes no call)
        if proc.pending._pending and not self.signals_held(proc):
            yield from self.deliver_pending(proc)
        return ret

    # ------------------------------------------------------------------
    # errno in the PRDA

    def _prda_frame(self, proc: Proc):
        for pregion in proc.vm.private:
            if pregion.rtype is RegionType.PRDA:
                try:
                    return pregion.region.ensure_page(0)
                except MemoryError:
                    # No frame for the PRDA (for real or injected):
                    # errno is best-effort, never a second failure.
                    return None
        return None

    def seterrno(self, proc: Proc, errno: int) -> None:
        """Deposit errno in the process's PRDA (paper section 5.1)."""
        frame = self._prda_frame(proc)
        if frame is not None:
            frame.data[ERRNO_OFFSET:ERRNO_OFFSET + 4] = errno.to_bytes(4, "little")

    # ------------------------------------------------------------------
    # signals

    def psignal(self, proc: Proc, sig: int) -> None:
        """Post ``sig`` to ``proc`` (kernel-internal, no permission check)."""
        if not proc.alive():
            return
        handler = proc.uarea.handler(sig)
        if handler is SIG_IGN and sig not in UNCATCHABLE:
            return
        if (
            handler is SIG_DFL
            and default_action(sig) is Action.IGNORE
            and sig not in UNCATCHABLE
        ):
            return
        proc.pending.post(sig)
        self.stats["signals_posted"] += 1
        self.pcount(proc, "signals_posted")
        self.trace("signal", proc.pid, "sig=%d posted" % sig)
        if (
            proc.state is Proc.SLEEPING
            and proc.sleep_interruptible
            and proc.sleeping_on is not None
        ):
            proc.sleeping_on.cancel(proc)

    @staticmethod
    def signals_held(proc: Proc) -> bool:
        """Must ``proc``'s pending signals wait for a running handler?

        Delivery is not reentered while a handler runs: new signals stay
        pending until it returns, the classic return-to-user rule.
        SIGKILL never waits.  Both asynchronous delivery points, the
        user-mode boundary and the syscall exit, ask this.
        """
        return proc.delivering > 0 and SIGKILL not in proc.pending

    def deliver_pending(self, proc: Proc):
        """Generator: deliver every pending signal (runs in proc context).

        The asynchronous delivery points first ask :meth:`signals_held`;
        a signal posted while a handler runs waits in ``proc.pending``,
        and this loop delivers it once the handler returns.
        """
        proc.delivering += 1
        try:
            yield from self._deliver_pending_body(proc)
        finally:
            proc.delivering -= 1

    def _deliver_pending_body(self, proc: Proc):
        while proc.pending:
            sig = proc.pending.take()
            if sig == 0:
                return
            handler = proc.uarea.handler(sig)
            if sig in UNCATCHABLE or handler is SIG_DFL:
                if default_action(sig) is Action.IGNORE:
                    continue
                self.stats["signal_deaths"] += 1
                yield from self.do_exit(proc, make_signal_status(sig))
                raise AssertionError("unreachable")  # pragma: no cover
            if handler is SIG_IGN:
                continue
            self.stats["signals_delivered"] += 1
            yield kdelay(self.costs.signal_deliver)
            yield from handler(proc.api, sig)

    def user_boundary(self, proc: Proc):
        """CPU hook: a frame to push at a user-mode boundary, or None."""
        if proc.in_kernel:
            return None
        if proc.block_count < 0:
            return self.blocked_frame(proc)
        if not proc.pending or self.signals_held(proc):
            return None
        return self.deliver_pending(proc)

    def exit_generator(self, proc: Proc, result):
        """CPU hook: the exit of a process whose program returned ``result``.

        An int result is the exit code; anything else exits 0.
        """
        code = result if isinstance(result, int) else 0
        return self.do_exit(proc, make_exit_status(code))
