"""The CPU: drives one process's generator stack and interprets effects.

Each simulated process carries a stack of generator *frames*
(``proc.frames``).  The bottom frame is the program's own generator;
when it returns, the kernel's exit runs in the same event.  Additional
frames are pushed to run asynchronously delivered signal handlers.  The
CPU repeatedly resumes the top frame, interprets the effect it yields,
and schedules the next resumption on the discrete-event engine.

User-mode delays are chunked at quantum boundaries.  At every user-mode
boundary the CPU lets the kernel deliver pending signals and honors
preemption requests; kernel-mode execution is never preempted, which is
the classic System V invariant the paper leans on (section 6).

The CPU makes two engine calls, both with the callables prebound in
``__init__`` and the per-hop state in the token, so a hop allocates no
closure and no Event (see ``docs/INTERNALS.md`` §14).  Every hop it
queues goes through ``engine.schedule_call``: the hops between
``_resume`` and ``_boundary``, and the dispatch hop from ``assign``
straight to the first boundary (carrying the process's resume value as
its token).  A kernel-mode delay goes through ``engine.hop``: when it is
strictly the next event, ``_resume`` runs ahead to it and sends the next
value into the same frame in the same call, so a syscall that meets no
other event is one pass; otherwise ``hop`` queues it.

Leaving the CPU is one scheduler call: ``preempt`` for a yield or a
preemption (requeue the process, offer the CPU), ``cpu_idle`` for a
block.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.effects import Block, Delay, ExecImage, Yield
from repro.sim.tlb import TLB


class CPU:
    """One processor of the simulated multiprocessor."""

    __slots__ = (
        "idx", "machine", "engine", "costs", "tlb", "private_tlb",
        "current", "kernel", "dispatcher", "_last_asid", "_label",
        "_resume_cb", "_boundary_cb", "_hop",
        "_ks", "_runq_wait",
        "busy_cycles", "switches", "dispatches", "preemptions",
    )

    def __init__(self, idx: int, machine, tlb_capacity: int = 64):
        self.idx = idx
        self.machine = machine
        self.engine = machine.engine
        self.costs = machine.costs
        self.tlb = TLB(
            tlb_capacity,
            kstat=machine.kstat,
            cpu_idx=idx,
            linear=machine.vm_index == "linear",
        )
        #: ``(asid, vpn)`` of private translations the current process
        #: cached under a shared ASID; they leave the TLB with it
        self.private_tlb = set()
        self.current = None  #: the proc executing on this CPU, or None
        self.kernel = None  #: set by Kernel.boot()
        self.dispatcher = None  #: set by the scheduler at boot
        self._last_asid: Optional[int] = None
        self._label = "cpu%d" % idx  #: trace detail, built once
        # Prebound hot-path callables: one bound method each for the
        # lifetime of the CPU.
        self._resume_cb = self._resume
        self._boundary_cb = self._boundary
        # the run-ahead hop for kernel delays; outside a fast drain it
        # queues like schedule_call, so the call site never needs to
        # know the loop
        self._hop = machine.engine.hop
        # bound kstat handles: a dispatch bumps them in place
        self._ks = machine.kstat.counters("cpu", idx)
        self._runq_wait = machine.kstat.histogram("kernel", 0, "runq_wait")
        # statistics
        self.busy_cycles = 0
        self.switches = 0
        self.dispatches = 0
        self.preemptions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.pid if self.current is not None else "idle"
        return "<CPU%d %s>" % (self.idx, running)

    # ------------------------------------------------------------------
    # dispatch

    def assign(self, proc) -> None:
        """Start running ``proc`` on this CPU.

        Charges the dispatch cost plus a context-switch cost that depends
        on whether the incoming process uses the same address space as
        the previous one (share-group members share an ASID, so switching
        between them is cheap and keeps the TLB warm).  The first
        boundary continues where the process left off: its resume value
        rides in the hop's token.  Nothing can write ``resume_value``
        in between — only a semaphore does, for a sleeper it is about to
        wake, and this process is running.
        """
        if self.current is not None:
            raise SimulationError("CPU%d assign while busy" % self.idx)
        self.current = proc
        proc.cpu = self
        proc.last_cpu = self.idx
        proc.need_resched = False
        proc.quantum_left = self.costs.quantum
        self.dispatches += 1
        cost = self.costs.dispatch
        asid = proc.vm.asid
        ks = self._ks
        ks["dispatches"] += 1
        if proc.runq_since is not None:
            self._runq_wait.add(self.engine.now - proc.runq_since)
            proc.runq_since = None
        if asid != self._last_asid:
            cost += self.costs.context_switch
            self.switches += 1
            ks["context_switches"] += 1
        else:
            cost += self.costs.context_switch_same_as
            ks["switches_same_as"] += 1
        self._last_asid = asid
        self.busy_cycles += cost
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("dispatch", proc.pid, self._label, ph="B", cpu=self.idx)
        value = proc.resume_value
        proc.resume_value = None
        self.engine.schedule_call(cost, self._boundary_cb, value)

    # ------------------------------------------------------------------
    # interpreter

    def _resume(self, value) -> None:
        """Advance the current process's top frame, effect by effect.

        Each turn of the loop sends ``value`` into the frame and
        interprets the effect it yields.  A kernel ``Delay`` is never
        preempted, so when its hop is strictly the next event on the
        timeline the engine runs ahead to it (``engine.hop``) and the
        loop sends the next value into the same frame: a syscall whose
        delays all run ahead is one call here.  A kernel hop that is not
        strictly earliest is queued for the drain; a user delay, a block
        or a yield ends the call.
        """
        proc = self.current
        if proc is None:
            raise SimulationError("CPU%d resume with no current proc" % self.idx)
        # only this CPU's boundary and frame-done paths change the frame
        # stack, and neither runs inside this loop
        frame = proc.frames[-1]
        while True:
            try:
                effect = frame.send(value)
            except StopIteration as stop:
                self._frame_done(proc, stop.value)
                return
            except ExecImage as image:
                # exec(): throw away the old image, start the new program.
                proc.frames = [image.frame]
                proc.saved_resume = []
                self.engine.schedule_call(0, self._resume_cb, None)
                return
            except SimulationError:
                raise
            except Exception as err:
                # An uncaught exception in guest or kernel code is a bug
                # in the workload (or in us); wrap it with enough context
                # to find the culprit, keeping the original traceback
                # chained.
                raise SimulationError(
                    "pid %d (%s) crashed on CPU%d at cycle %d: %r"
                    % (proc.pid, proc.name, self.idx, self.engine.now, err)
                ) from err
            # Delay is ~all of the steady state and is interpreted
            # inline; every other effect goes to _interpret
            if type(effect) is not Delay:
                self._interpret(proc, effect)
                return
            cycles = effect.cycles
            if effect.user:
                quantum_left = proc.quantum_left
                if cycles <= quantum_left:
                    # _user_delay's one-chunk case, queued here: the
                    # whole delay fits in what is left of the quantum
                    proc.quantum_left = quantum_left - cycles
                    self.busy_cycles += cycles
                    self.engine.schedule_call(cycles, self._boundary_cb, None)
                else:
                    self._user_delay(proc, cycles)
                return
            self.busy_cycles += cycles
            if not self._hop(cycles, self._resume_cb, None):
                return
            value = None

    def _frame_done(self, proc, result) -> None:
        """The top frame ran to completion, returning ``result``."""
        frames = proc.frames
        frames.pop()
        if frames:
            # a pushed frame (signal delivery, a blockproc park): its
            # result is dropped
            saved = proc.saved_resume.pop()
            self.engine.schedule_call(0, self._boundary_cb, saved)
        else:
            # The program returned: it exits in this same event, right
            # where its last effect left off.
            frames.append(self.kernel.exit_generator(proc, result))
            self._resume(None)

    def _interpret(self, proc, effect) -> None:
        """Every effect but ``Delay``, which ``_resume`` handles inline."""
        if type(effect) is Block:
            self._deschedule(proc)
            return
        if type(effect) is Yield:
            if self.dispatcher is not None and self.dispatcher.has_runnable():
                self._preempt(proc, None)
            else:
                # yield_cpu with an empty run queue: stay on the CPU
                cost = self.costs.spin_poll
                self.busy_cycles += cost
                self.engine.schedule_call(cost, self._boundary_cb, None)
            return
        raise SimulationError("unknown effect %r from pid %s" % (effect, proc.pid))

    # ------------------------------------------------------------------
    # user-mode execution

    def _user_delay(self, proc, cycles: int) -> None:
        """Burn preemptible user cycles, chunked at the quantum.

        ``_resume`` queues a delay that fits in the quantum itself; this
        is the path for one that does not, and for a delay's remainder.

        The unburned remainder travels *inside* the resume token, never
        in shared per-proc state: a signal handler pushed at the chunk
        boundary may run its own chunked delays without clobbering the
        interrupted computation's remainder.
        """
        quantum_left = proc.quantum_left
        cap = quantum_left if quantum_left > 1 else 1
        chunk = cycles if cycles < cap else cap
        proc.quantum_left = quantum_left - chunk
        remaining = cycles - chunk
        self.busy_cycles += chunk
        # _boundary itself performs signal delivery and preemption
        # checks at the end of the chunk
        token = _ContinueDelay(remaining) if remaining > 0 else None
        self.engine.schedule_call(chunk, self._boundary_cb, token)

    def _boundary(self, resume_value) -> None:
        """A user-mode boundary: deliver signals, honor preemption, resume."""
        proc = self.current
        if proc is None:
            raise SimulationError("CPU%d boundary with no current proc" % self.idx)
        # Common-case precheck mirroring Kernel.user_boundary's early
        # returns: user mode, not blocked, nothing pending — delivery
        # cannot happen, so skip the call on the steady-state hop.
        # (proc.pending._pending: the raw set, skipping __bool__ dispatch
        # on a check that runs every user-mode chunk)
        if self.kernel is not None and not proc.in_kernel and (
            proc.block_count < 0 or proc.pending._pending
        ):
            delivery = self.kernel.user_boundary(proc)
        else:
            delivery = None
        if delivery is not None:
            proc.saved_resume.append(resume_value)
            proc.frames.append(delivery)
            self.engine.schedule_call(0, self._resume_cb, None)
            return
        if proc.quantum_left <= 0:
            proc.quantum_left = self.costs.quantum
            if self.dispatcher is not None and self.dispatcher.should_preempt(self, proc):
                self.preemptions += 1
                self._preempt(proc, resume_value)
                return
        if proc.need_resched:
            self.preemptions += 1
            self._preempt(proc, resume_value)
            return
        if type(resume_value) is _ContinueDelay:
            self._user_delay(proc, resume_value.remaining)
        else:
            self._resume_cb(resume_value)

    # ------------------------------------------------------------------
    # leaving the CPU

    def _preempt(self, proc, resume_value) -> None:
        """Put ``proc`` back on the run queue and offer this CPU to the
        dispatch loop, in one scheduler call."""
        proc.resume_value = resume_value
        proc.need_resched = False
        self.current = None
        proc.cpu = None
        if self.private_tlb:
            self._drop_private_tlb()
        self._ks["preempt_offs"] += 1
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("dispatch", proc.pid, self._label, ph="E", cpu=self.idx)
        self.dispatcher.preempt(self, proc)

    def _deschedule(self, proc) -> None:
        """The process blocked; free the CPU."""
        self.current = None
        proc.cpu = None
        if self.private_tlb:
            self._drop_private_tlb()
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("dispatch", proc.pid, self._label, ph="E", cpu=self.idx)
        self.dispatcher.cpu_idle(self)

    def _drop_private_tlb(self) -> None:
        """The outgoing process's PRDA leaves the TLB.

        Every VM-sharing member maps its own PRDA at the same VPN under
        the group's ASID, so such an entry must not outlive its
        process's stay here.
        """
        tlb = self.tlb
        for asid, vpn in self.private_tlb:
            tlb.discard(asid, vpn)
        self.private_tlb.clear()


class _ContinueDelay:
    """Resume token: the process was interrupted mid user-delay and
    still owes ``remaining`` cycles of it."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int):
        self.remaining = remaining

    def __repr__(self) -> str:  # pragma: no cover
        return "<continue-delay %d>" % self.remaining
