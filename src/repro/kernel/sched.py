"""The multiprocessor scheduler: per-CPU run queues with affinity.

Each CPU owns a priority run queue: a flat heap whose head is always a
live entry.  ``wakeup`` enqueues a process on the CPU it last ran on
when that queue is not noticeably deeper than its peers (warm cache,
and — for share-group members, which all run under one ASID — a warm
TLB); otherwise it falls back to the least-loaded queue.  An idle CPU
drains its own queue first and *steals* the best runnable process from
a peer when its queue is empty, so no CPU idles while work waits.
Dispatch and preemption decisions read only the queue heads (O(ncpus)),
never every runnable process — the global run-queue scan this design
replaced is kept as :class:`GlobalScheduler` for the E15 ablation.
Both subclass :class:`SchedulerBase`, which holds wakeup, the dispatch
loop, gang mode and preemption requests; they differ only in the queue,
``_select`` and ``_place``.

Preemption is requested by setting ``need_resched`` on the running
process; the CPU honors it at its next user-mode boundary (kernel code
is never preempted on its own CPU, the System V rule the paper's locking
design assumes).

Gang mode — the paper's section 8 suggestion that "at least two of the
processes in the share group must run in parallel, or the group should
not be allowed to execute at all" — is implemented as an extension: a
share group marked gang-scheduled is only dispatched when enough CPUs
are idle to run *all* of its runnable members side by side, and they are
then placed as a unit.  A gang member at the head of the combined queues
*reserves* idle CPUs: until enough processors are free the scheduler
dispatches nothing and asks running non-members to yield.  Experiment
E12 measures what this buys spinlock-heavy workloads.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.kernel.proc import Proc, ProcState

#: a waking process stays on its last CPU's queue as long as that queue
#: is at most this much deeper than the shallowest queue
AFFINITY_SLACK = 1


class SchedulerBase:
    """What both schedulers share: everything but the run queue.

    Wakeup, requeue and idle handling, the dispatch loop with gang
    reservation, eviction and preemption requests, and the counters are
    written once here.  A subclass supplies the queue itself:
    ``_enqueue``, ``_select`` (count the pick, return the best waiting
    process or None), ``_place`` (take it off the queue and onto an
    idle CPU), ``should_preempt``, ``reprioritize``, ``has_runnable``
    and ``queue_depths``.
    """

    def __init__(self, machine):
        self.machine = machine
        self.kernel = None  #: set by the kernel at boot (trace hooks)
        self._idle = list(machine.cpus)  #: CPUs with nothing to run
        self.wakeups = 0
        self.gang_dispatches = 0
        self.gang_holds = 0
        self.affinity_hits = 0  #: dispatched on last_cpu
        self.migrations = 0  #: dispatched on a different CPU
        self.steals = 0  #: taken from another CPU's queue
        self.picks = 0  #: dispatch decisions taken
        self.scan_steps = 0  #: queue entries examined making them
        #: bound kstat handle for the kernel-wide counters
        self._kernel_ks = machine.kstat.counters("kernel", 0)
        for cpu in machine.cpus:
            cpu.dispatcher = self

    # ------------------------------------------------------------------
    # queue maintenance

    def wakeup(self, proc: Proc) -> None:
        """Make ``proc`` runnable and get it a CPU if one is idle."""
        if proc.state in (ProcState.RUNNING, ProcState.RUNNABLE):
            return
        if proc.state is ProcState.ZOMBIE:
            raise SimulationError("wakeup of zombie %r" % proc)
        proc.state = ProcState.RUNNABLE
        self._enqueue(proc)
        self.wakeups += 1
        self._kernel_ks["wakeups"] += 1
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("wakeup", proc.pid)
        self._dispatch_idle()
        if proc.state is ProcState.RUNNABLE:
            self._request_preemption(proc)

    def requeue(self, proc: Proc) -> None:
        """A preempted or yielding process goes back to a queue tail."""
        proc.state = ProcState.RUNNABLE
        self._enqueue(proc)

    def _enqueue(self, proc: Proc) -> None:
        raise NotImplementedError

    def cpu_idle(self, cpu) -> None:
        """``cpu`` has nothing to run; find it work or park it."""
        if cpu.current is not None:
            raise SimulationError("cpu_idle on busy CPU%d" % cpu.idx)
        if cpu not in self._idle:
            self._idle.append(cpu)
        self._dispatch_idle()

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch_idle(self) -> None:
        """Fill idle CPUs until no eligible work remains."""
        while self._idle:
            if not self._dispatch_one():
                return

    def _dispatch_one(self) -> bool:
        """One dispatch decision; False when nothing may be placed.

        A gang member chosen by ``_select`` reserves idle CPUs: if not
        enough processors are free to co-schedule the whole gang we
        dispatch nothing (leaving CPUs idle to accumulate) and ask
        running non-members to yield.  Deliberately
        non-work-conserving — that is the price of the section 8
        guarantee that the group runs in parallel or not at all.  The
        companions are computed after the chosen member is placed, when
        it no longer counts as runnable; E12's placement order depends
        on that.
        """
        chosen = self._select()
        if chosen is None:
            return False
        if chosen.shaddr is not None and chosen.shaddr.gang:
            if self._gang_need(chosen) > len(self._idle):
                self.gang_holds += 1
                self._evict_for_gang(chosen)
                return False
            self.gang_dispatches += 1
            self._place(chosen)
            for member in self._gang_companions(chosen):
                self._place(member)
            return True
        self._place(self._prefer_local(chosen))
        return True

    def _select(self) -> Optional[Proc]:
        raise NotImplementedError

    def _place(self, proc: Proc) -> None:
        raise NotImplementedError

    def _prefer_local(self, best: Proc) -> Proc:
        """The process to place for a non-gang ``best``: ``best`` itself
        unless the subclass keeps queues an idle CPU can prefer."""
        return best

    # ------------------------------------------------------------------
    # gang mode (extension)

    def _gang_runnable(self, proc: Proc) -> List[Proc]:
        return [
            member for member in proc.shaddr.members()
            if member.state is ProcState.RUNNABLE
        ]

    def _gang_need(self, proc: Proc) -> int:
        """CPUs required to co-dispatch the gang (capped at the machine)."""
        return min(len(self._gang_runnable(proc)), self.machine.ncpus)

    def _gang_blocked(self, proc: Proc) -> bool:
        """May this gang member not be dispatched yet?"""
        if proc.shaddr is None or not proc.shaddr.gang:
            return False
        return self._gang_need(proc) > len(self._idle)

    def _gang_companions(self, proc: Proc) -> List[Proc]:
        """Other members to place on idle CPUs alongside ``proc``."""
        take = self._gang_need(proc) - 1
        return [
            member for member in self._gang_runnable(proc) if member is not proc
        ][:take]

    def _evict_for_gang(self, proc: Proc) -> None:
        """Ask CPUs running non-members to free up for a waiting gang."""
        members = set(proc.shaddr.members())
        for cpu in self.machine.cpus:
            running = cpu.current
            if running is not None and running not in members:
                running.need_resched = True

    # ------------------------------------------------------------------
    # preemption

    def _request_preemption(self, incoming: Proc) -> None:
        """Ask the worst-priority running CPU to yield to ``incoming``."""
        victim_cpu = None
        for cpu in self.machine.cpus:
            running = cpu.current
            if running is None:
                continue
            if running.pri <= incoming.pri:
                continue
            if victim_cpu is None or running.pri > victim_cpu.current.pri:
                victim_cpu = cpu
        if victim_cpu is not None:
            victim_cpu.current.need_resched = True

    # ------------------------------------------------------------------
    # introspection

    @property
    def idle_count(self) -> int:
        return len(self._idle)


class Scheduler(SchedulerBase):
    """Per-CPU run queues, cache/TLB affinity, work stealing, gang mode.

    Each CPU's queue is a binary heap of ``[pri, seq, proc, alive,
    cpu_idx]`` entries.  ``seq`` is the scheduler-wide enqueue counter,
    so FIFO order within a priority is preserved across queues, runs are
    deterministic, and comparing two entries never reaches ``proc``.
    Removal (work stealing, gang co-dispatch, priority changes) marks
    the entry dead and at once pops dead entries off that heap's head,
    so a non-empty heap's ``[0]`` is always its live best.
    """

    #: name under which make_scheduler finds this class
    kind = "percpu"

    def __init__(self, machine):
        super().__init__(machine)
        self._heaps: List[list] = [[] for _ in machine.cpus]
        self._depth = [0] * len(machine.cpus)  #: live entries per CPU
        self._entries: Dict[int, list] = {}  #: pid -> live heap entry
        self._seq = 0  #: global enqueue counter (FIFO within priority)
        #: bound per-CPU kstat handles, indexed by CPU idx
        self._cpu_ks = [machine.kstat.counters("cpu", cpu.idx) for cpu in machine.cpus]
        # the engine's seed and feature set are fixed when it is built
        engine = machine.engine
        self._engine = engine
        self._rng = engine.rng
        self._perturb_enqueue = engine.perturbs("enqueue")
        self._perturb_select = engine.perturbs("select")
        self._perturb_place = engine.perturbs("place")

    # ------------------------------------------------------------------
    # queue maintenance

    def _enqueue(self, proc: Proc) -> None:
        """Queue ``proc`` on its last CPU's queue while that stays within
        the affinity slack, so a preempted process contends for its own
        — still warm — processor first."""
        proc.runq_since = self._engine.now
        depth = self._depth
        shallowest = min(depth)
        if self._perturb_enqueue:
            # Schedule exploration: any queue within the affinity slack
            # of the shallowest is a legal home — let the seeded RNG
            # pick among them instead of always preferring last_cpu.
            home = self._rng.choice([
                idx for idx, queued in enumerate(depth)
                if queued <= shallowest + AFFINITY_SLACK
            ])
        else:
            home = proc.last_cpu
            if home is None and self._idle:
                # never-run process: head straight for a queue that will
                # drain immediately
                home = self._idle[0].idx
            elif home is None or depth[home] > shallowest + AFFINITY_SLACK:
                home = depth.index(shallowest)
        self._push(proc, home)
        depth[home] += 1
        self._cpu_ks[home]["runq_depth"] = depth[home]

    def _push(self, proc: Proc, home: int) -> None:
        """Put ``proc`` on CPU ``home``'s heap under a fresh seq."""
        if proc.pid in self._entries:
            raise SimulationError("pid %d enqueued twice" % proc.pid)
        self._seq += 1
        entry = [proc.pri, self._seq, proc, True, home]
        self._entries[proc.pid] = entry
        heapq.heappush(self._heaps[home], entry)

    def _unlink(self, proc: Proc) -> int:
        """Take ``proc``'s entry off its heap; return that heap's CPU."""
        entry = self._entries.pop(proc.pid)
        entry[3] = False
        home = entry[4]
        heap = self._heaps[home]
        while heap and not heap[0][3]:
            heapq.heappop(heap)
        return home

    def reprioritize(self, proc: Proc) -> None:
        """``proc.pri`` changed; re-key its queue entry if it is waiting."""
        if proc.pid in self._entries:
            self._push(proc, self._unlink(proc))

    # ------------------------------------------------------------------
    # dispatch

    def _prefer_local(self, best: Proc) -> Proc:
        """A same-priority head on an idle CPU's own queue, if any.

        Priorities are strict, but *within* the best priority class an
        idle CPU takes the head of its own queue before the globally
        oldest one — that slight FIFO bend is what makes affinity pay:
        a requeued process is usually redispatched on the CPU whose
        cache and TLB it just warmed instead of round-robining across
        the machine.  Gang heads are never chosen here — gangs dispatch
        only through the global-best path so the reservation rule stays
        intact.
        """
        heaps = self._heaps
        for cpu in self._idle:
            heap = heaps[cpu.idx]
            self.scan_steps += 1
            if heap and heap[0][0] == best.pri:
                proc = heap[0][2]
                if proc.shaddr is None or not proc.shaddr.gang:
                    return proc
        return best

    def _select(self) -> Optional[Proc]:
        """Globally-best queued process, by (priority, enqueue order).

        Found by reading the head of every queue — O(ncpus),
        independent of how many processes are runnable.  Under seeded
        perturbation, FIFO order *within* the best priority class is
        not load-bearing: the RNG picks any best-priority head (a legal
        steal tie-break), which is how the schedule explorer varies who
        gets stolen first.
        """
        self.picks += 1
        heaps = self._heaps
        self.scan_steps += len(heaps)
        best = None
        for heap in heaps:
            if heap and (best is None or heap[0] < best):
                best = heap[0]
        if best is None:
            return None
        proc = best[2]
        if self._perturb_select:
            heads = [heap[0][2] for heap in heaps if heap and heap[0][0] == proc.pri]
            if len(heads) > 1:
                return self._rng.choice(heads)
        return proc

    def _place(self, proc: Proc) -> None:
        home = self._unlink(proc)
        depth = self._depth[home] - 1
        self._depth[home] = depth
        self._cpu_ks[home]["runq_depth"] = depth
        cpu = self._choose_cpu(proc, home)
        self._idle.remove(cpu)
        proc.state = ProcState.RUNNING
        if proc.last_cpu is not None:
            if cpu.idx == proc.last_cpu:
                self.affinity_hits += 1
                self._kernel_ks["sched_affinity_hits"] += 1
            else:
                self.migrations += 1
                self._kernel_ks["sched_migrations"] += 1
        if cpu.idx != home:
            self.steals += 1
            self._kernel_ks["sched_steals"] += 1
            self._cpu_ks[cpu.idx]["runq_steals"] += 1
        cpu.assign(proc)

    def _choose_cpu(self, proc: Proc, home: int):
        """Best idle CPU for ``proc``: its queue's owner ``home``, then
        last_cpu, then whichever went idle first.  Under seeded
        perturbation any idle CPU is a legal placement (an affinity
        tie-break)."""
        idle = self._idle
        if self._perturb_place and len(idle) > 1:
            return self._rng.choice(idle)
        for cpu in idle:
            if cpu.idx == home:
                return cpu
        if proc.last_cpu is not None and proc.last_cpu != home:
            for cpu in idle:
                if cpu.idx == proc.last_cpu:
                    return cpu
        return idle[0]

    # ------------------------------------------------------------------
    # preemption

    def should_preempt(self, cpu, proc: Proc) -> bool:
        """Quantum expired on ``proc``: is someone of equal/better
        priority waiting on this CPU's own queue?

        Only the local head is examined — O(1), where the global run
        queue scanned every runnable process.  Cross-CPU pressure is
        handled at wakeup time (``_request_preemption``) and by idle
        CPUs stealing, so no remote scan is needed here.
        """
        self.scan_steps += 1
        heap = self._heaps[cpu.idx]
        if not heap:
            return False
        head = heap[0]
        if self._gang_blocked(head[2]):
            return False
        return head[0] <= proc.pri

    # ------------------------------------------------------------------
    # introspection

    def has_runnable(self) -> bool:
        """Is anybody waiting for a CPU?  (``yield_cpu`` fast-path check)"""
        return bool(self._entries)

    def queue_depths(self) -> List[int]:
        """Current depth of every CPU's run queue (introspection)."""
        return list(self._depth)


class GlobalScheduler(SchedulerBase):
    """The pre-E15 scheduler: one global run queue feeding idle CPUs.

    Kept as the ablation baseline for experiment E15: ``_select`` scans
    every runnable process per dispatch and ``should_preempt`` re-scans
    the whole queue at every quantum expiry, the O(n) hot path the
    per-CPU scheduler removes.  Placement ignores ``last_cpu``, so
    ``affinity_hits``, ``migrations`` and ``steals`` stay 0.  Select it
    with ``System(scheduler="global")``.
    """

    kind = "global"

    def __init__(self, machine):
        super().__init__(machine)
        self._queue: List[Proc] = []  #: FIFO within priority

    def _enqueue(self, proc: Proc) -> None:
        proc.runq_since = self.machine.engine.now
        self._queue.append(proc)

    def reprioritize(self, proc: Proc) -> None:
        """No-op: ``_select`` reads priorities live off the global queue."""

    def _select(self) -> Optional[Proc]:
        """Best queued process: the first of the best priority (O(n))."""
        self.picks += 1
        self.scan_steps += len(self._queue)
        best: Optional[Proc] = None
        for proc in self._queue:
            if best is None or proc.pri < best.pri:
                best = proc
        return best

    def _place(self, proc: Proc) -> None:
        cpu = self._idle.pop(0)
        self._queue.remove(proc)
        proc.state = ProcState.RUNNING
        cpu.assign(proc)

    def should_preempt(self, cpu, proc: Proc) -> bool:
        """Quantum expired on ``proc``: is someone of equal/better priority waiting?"""
        for steps, queued in enumerate(self._queue, start=1):
            if queued.pri <= proc.pri and not self._gang_blocked(queued):
                self.scan_steps += steps
                return True
        self.scan_steps += len(self._queue)
        return False

    def has_runnable(self) -> bool:
        """Is anybody waiting for a CPU?  (``yield_cpu`` fast-path check)"""
        return bool(self._queue)

    def queue_depths(self) -> List[int]:
        """Global queue: all waiting work reported on one depth."""
        return [len(self._queue)] + [0] * (self.machine.ncpus - 1)


#: selectable scheduler implementations (System(scheduler=...))
SCHEDULERS = {cls.kind: cls for cls in (Scheduler, GlobalScheduler)}


def make_scheduler(kind, machine):
    """Build the scheduler named ``kind`` (or call a custom factory)."""
    if callable(kind):
        return kind(machine)
    try:
        cls = SCHEDULERS[kind]
    except KeyError:
        raise ValueError(
            "unknown scheduler %r (have: %s)" % (kind, ", ".join(sorted(SCHEDULERS)))
        )
    return cls(machine)
