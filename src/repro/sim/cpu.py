"""The CPU: drives one process's generator stack and interprets effects.

Each simulated process carries a stack of generator *frames*
(``proc.frames``).  The bottom frame is the process driver created by the
kernel (user program plus implicit exit); additional frames are pushed to
run asynchronously delivered signal handlers.  The CPU repeatedly resumes
the top frame, interprets the effect it yields, and schedules the next
resumption on the discrete-event engine.

User-mode delays are chunked at quantum boundaries.  At every user-mode
boundary the CPU lets the kernel deliver pending signals and honors
preemption requests; kernel-mode execution is never preempted, which is
the classic System V invariant the paper leans on (section 6).

The steady-state hop between ``_resume`` and ``_boundary`` uses the
engine's inline-continuation slot (``engine.resched_inline``) with the
callables prebound in ``__init__``: when the hop is the strictly next
event on the timeline the engine fires it directly — no Event, no queue
traffic, no closures (see ``docs/INTERNALS.md`` §14 and §17).  Paths
that need a cancellable handle or follow anything other than the
straight-line interpreter hop stay on ``engine.schedule_call``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.effects import Block, Delay, ExecImage, Yield
from repro.sim.tlb import TLB


class CPU:
    """One processor of the simulated multiprocessor."""

    __slots__ = (
        "idx", "machine", "engine", "costs", "tlb",
        "current", "kernel", "dispatcher", "_last_asid", "_label",
        "_resume_cb", "_boundary_cb", "_dispatch_cb", "_resched",
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
            asid_index=machine.vm_index != "linear",
        )
        self.current = None  #: the proc executing on this CPU, or None
        self.kernel = None  #: set by Kernel.boot()
        self.dispatcher = None  #: set by the scheduler at boot
        self._last_asid: Optional[int] = None
        self._label = "cpu%d" % idx  #: trace detail, built once
        # Prebound hot-path callables: one bound method each for the
        # lifetime of the CPU.
        self._resume_cb = self._resume
        self._boundary_cb = self._boundary
        self._dispatch_cb = self._dispatch_boundary
        # the trampoline-eliding hop for steady-state resumes; under the
        # naive-loop ablation it degrades to schedule_call inside the
        # engine, so call sites never need to know the mode
        self._resched = machine.engine.resched_inline
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
        between them is cheap and keeps the TLB warm).
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
        asid = proc.asid()
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
        self.engine.schedule(cost, self._dispatch_cb)

    def _dispatch_boundary(self) -> None:
        """First boundary after dispatch: continue where the proc left off."""
        proc = self.current
        value = proc.resume_value
        proc.resume_value = None
        self._boundary(value)

    # ------------------------------------------------------------------
    # interpreter

    def _resume(self, value=None, exc: Optional[BaseException] = None) -> None:
        """Advance the current process's top frame by one effect."""
        proc = self.current
        if proc is None:
            raise SimulationError("CPU%d resume with no current proc" % self.idx)
        frame = proc.frames[-1]
        try:
            if exc is not None:
                effect = frame.throw(exc)
            else:
                effect = frame.send(value)
        except StopIteration:
            self._frame_done(proc)
            return
        except ExecImage as image:
            # exec(): throw away the old image, start the new driver.
            proc.frames = [image.driver]
            proc.saved_resume = []
            self.engine.schedule_call(0, self._resume_cb, None)
            return
        except SimulationError:
            raise
        except Exception as err:
            # An uncaught exception in guest or kernel code is a bug in
            # the workload (or in us); wrap it with enough context to
            # find the culprit, keeping the original traceback chained.
            # ``err``, not ``exc``: the parameter names the *injected*
            # throwable and must not be shadowed by what the frame raised.
            raise SimulationError(
                "pid %d (%s) crashed on CPU%d at cycle %d: %r"
                % (proc.pid, proc.name, self.idx, self.engine.now, err)
            ) from err
        # inline effect interpretation: Delay is ~all of the steady state
        if type(effect) is Delay:
            cycles = effect.cycles
            if effect.user:
                self._user_delay(proc, cycles)
            else:
                self.busy_cycles += cycles
                self._resched(cycles, self._resume_cb, None)
            return
        self._interpret(proc, effect)

    def _frame_done(self, proc) -> None:
        """The top frame ran to completion."""
        proc.frames.pop()
        if proc.frames:
            saved = proc.saved_resume.pop()
            self.engine.schedule_call(0, self._boundary_cb, saved)
        else:
            # The driver fell off the end without exiting; the kernel
            # turns that into an implicit exit(0).
            proc.frames.append(self.kernel.exit_generator(proc, 0))
            self.engine.schedule_call(0, self._resume_cb, None)

    def _interpret(self, proc, effect) -> None:
        """Every effect but ``Delay``, which ``_resume`` handles inline."""
        if type(effect) is Block:
            self._deschedule(proc)
            return
        if type(effect) is Yield:
            if self.dispatcher is not None and self.dispatcher.has_runnable():
                self._preempt(proc, resume_value=None)
            else:
                # sched_yield with an empty run queue: stay on the CPU
                cost = self.costs.spin_poll
                self.busy_cycles += cost
                self.engine.schedule_call(cost, self._boundary_cb, None)
            return
        raise SimulationError("unknown effect %r from pid %s" % (effect, proc.pid))

    # ------------------------------------------------------------------
    # user-mode execution

    def _user_delay(self, proc, cycles: int) -> None:
        """Burn preemptible user cycles, chunked at the quantum.

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
        # The hop to the chunk boundary is inline-eligible: _boundary
        # itself still performs signal delivery and preemption checks,
        # so eliding the queue round-trip is semantically invisible.
        if remaining > 0:
            self._resched(chunk, self._boundary_cb, _ContinueDelay(remaining))
        else:
            self._resched(chunk, self._boundary_cb, None)

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
        """Put ``proc`` back on the run queue and go idle."""
        proc.resume_value = resume_value
        proc.need_resched = False
        self.current = None
        proc.cpu = None
        self._ks["preempt_offs"] += 1
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("dispatch", proc.pid, self._label, ph="E", cpu=self.idx)
        self.dispatcher.requeue(proc)
        self.dispatcher.cpu_idle(self)

    def _deschedule(self, proc) -> None:
        """The process blocked; free the CPU."""
        self.current = None
        proc.cpu = None
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("dispatch", proc.pid, self._label, ph="E", cpu=self.idx)
        self.dispatcher.cpu_idle(self)


class _ContinueDelay:
    """Resume token: the process was interrupted mid user-delay and
    still owes ``remaining`` cycles of it."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int):
        self.remaining = remaining

    def __repr__(self) -> str:  # pragma: no cover
        return "<continue-delay %d>" % self.remaining
