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
Both subclass :class:`SchedulerBase`, which holds wakeup, the CPU
hand-back paths, gang co-dispatch and preemption requests; each class
supplies its queue and its one dispatch loop, ``_dispatch``, which
makes a whole decision (read the queue, choose, place) in one frame.

A context switch costs one scheduler call from the CPU: ``preempt`` for
a yield or a quantum preemption (requeue, then dispatch), ``cpu_idle``
for a block, ``wakeup`` for a wakeup.  Process states are read through
module bindings, never through ``ProcState``'s metaclass lookup.

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

from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.kernel.proc import Proc

#: a waking process stays on its last CPU's queue as long as that queue
#: is at most this much deeper than the shallowest queue
AFFINITY_SLACK = 1

# process states as module globals: reading a ``ProcState`` member goes
# through the enum metaclass's ``__getattr__`` every time
RUNNABLE = Proc.RUNNABLE
RUNNING = Proc.RUNNING
ZOMBIE = Proc.ZOMBIE


class SchedulerBase:
    """What both schedulers share: everything but the run queue.

    Wakeup, the CPU hand-back paths (``preempt``, ``cpu_idle``), gang
    co-dispatch (need check, hold, eviction, companions), preemption
    requests and the counters are written once here.  A subclass
    supplies the queue itself: ``_enqueue``, ``_dispatch`` (fill idle
    CPUs until no eligible work remains), ``should_preempt``,
    ``reprioritize``, ``has_runnable`` and ``queue_depths``.
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
    # entry points: a wakeup, a yield or preemption, a block

    def wakeup(self, proc: Proc) -> None:
        """Make ``proc`` runnable and get it a CPU if one is idle."""
        state = proc.state
        if state is RUNNING or state is RUNNABLE:
            return
        if state is ZOMBIE:
            raise SimulationError("wakeup of zombie %r" % proc)
        proc.state = RUNNABLE
        self._enqueue(proc)
        self.wakeups += 1
        self._kernel_ks["wakeups"] += 1
        kernel = self.kernel
        if kernel is not None and kernel.tracer is not None:
            kernel.trace("wakeup", proc.pid)
        self._dispatch()
        if proc.state is RUNNABLE:
            self._request_preemption(proc)

    def preempt(self, cpu, proc: Proc) -> None:
        """``proc`` left ``cpu`` still runnable (a yield or a preemption):
        back to a queue tail, and the freed CPU to the dispatch loop."""
        proc.state = RUNNABLE
        self._enqueue(proc)
        # a CPU that was running a process is never on the idle list
        self._idle.append(cpu)
        self._dispatch()

    def cpu_idle(self, cpu) -> None:
        """``cpu``'s process blocked; find the CPU work or park it."""
        if cpu.current is not None:
            raise SimulationError("cpu_idle on busy CPU%d" % cpu.idx)
        if cpu not in self._idle:
            self._idle.append(cpu)
        self._dispatch()

    def _enqueue(self, proc: Proc) -> None:
        raise NotImplementedError

    def _dispatch(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # gang mode (extension)

    def _gang_runnable(self, proc: Proc) -> List[Proc]:
        return [
            member for member in proc.shaddr.members()
            if member.state is RUNNABLE
        ]

    def _gang_blocked(self, proc: Proc) -> bool:
        """May this gang member not be dispatched yet?"""
        if proc.shaddr is None or not proc.shaddr.gang:
            return False
        need = min(len(self._gang_runnable(proc)), self.machine.ncpus)
        return need > len(self._idle)

    def _gang_take(self, chosen: Proc) -> Optional[List[Proc]]:
        """One dispatch decision for the gang member ``chosen``: the
        members to place, ``chosen`` first, or None when the gang holds.

        A gang reserves idle CPUs: if not enough processors are free to
        co-schedule every runnable member we dispatch nothing (leaving
        CPUs idle to accumulate) and ask running non-members to yield.
        Deliberately non-work-conserving — that is the price of the
        section 8 guarantee that the group runs in parallel or not at
        all.  The companions are taken before anyone is placed, while
        ``chosen`` still counts as runnable, so the whole gang goes out
        in this one decision: no later decision can hand a reserved CPU
        to a non-member queued ahead of the last member.
        """
        runnable = self._gang_runnable(chosen)
        need = min(len(runnable), self.machine.ncpus)
        if need > len(self._idle):
            self.gang_holds += 1
            members = set(chosen.shaddr.members())
            for cpu in self.machine.cpus:
                running = cpu.current
                if running is not None and running not in members:
                    running.need_resched = True
            return None
        self.gang_dispatches += 1
        companions = [member for member in runnable if member is not chosen]
        return [chosen] + companions[:need - 1]

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
        entries = self._entries
        pid = proc.pid
        if pid in entries:
            raise SimulationError("pid %d enqueued twice" % pid)
        self._seq = seq = self._seq + 1
        entry = [proc.pri, seq, proc, True, home]
        entries[pid] = entry
        heappush(self._heaps[home], entry)
        depth[home] += 1
        self._cpu_ks[home]["runq_depth"] = depth[home]

    def reprioritize(self, proc: Proc) -> None:
        """``proc.pri`` changed; re-key its queue entry if it is waiting.

        The old entry dies where it lies and a fresh one, under a new
        seq, joins the same CPU's heap.
        """
        old = self._entries.get(proc.pid)
        if old is None:
            return
        old[3] = False
        home = old[4]
        self._seq += 1
        entry = [proc.pri, self._seq, proc, True, home]
        self._entries[proc.pid] = entry
        heap = self._heaps[home]
        heappush(heap, entry)
        while not heap[0][3]:
            heappop(heap)

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self) -> None:
        """Fill idle CPUs until no eligible work remains.

        Each decision reads every queue head for the globally best
        process by (priority, enqueue order) — O(ncpus), however many
        processes are runnable.  Under seeded perturbation, FIFO order
        *within* the best priority class is not load-bearing: the RNG
        picks any best-priority head (a legal steal tie-break), which
        is how the schedule explorer varies who gets stolen first.

        Priorities are strict, but within the best priority class an
        idle CPU takes the head of its own queue before the globally
        oldest one — that slight FIFO bend is what makes affinity pay:
        a requeued process is usually redispatched on the CPU whose
        cache and TLB it just warmed instead of round-robining across
        the machine.  Gang heads are never taken that way: a gang is
        dispatched only as the global best, through ``_gang_take``, so
        the reservation rule stays intact.
        """
        idle = self._idle
        heaps = self._heaps
        while idle:
            self.picks += 1
            self.scan_steps += len(heaps)
            best = None
            for heap in heaps:
                if heap and (best is None or heap[0] < best):
                    best = heap[0]
            if best is None:
                return
            proc = best[2]
            pri = proc.pri
            if self._perturb_select:
                heads = [heap[0][2] for heap in heaps if heap and heap[0][0] == pri]
                if len(heads) > 1:
                    proc = self._rng.choice(heads)
            shaddr = proc.shaddr
            if shaddr is not None and shaddr.gang:
                group = self._gang_take(proc)
                if group is None:
                    return
                for member in group:
                    self._place(member)
                continue
            examined = 0
            for cpu in idle:
                examined += 1
                heap = heaps[cpu.idx]
                if heap and heap[0][0] == pri:
                    local = heap[0][2]
                    if local.shaddr is None or not local.shaddr.gang:
                        proc = local
                        break
            self.scan_steps += examined
            self._place(proc)

    def _place(self, proc: Proc) -> None:
        """Take ``proc`` off its queue and start it on the best idle CPU.

        The best is its queue's owner, then ``last_cpu``, then whichever
        went idle first.  Under seeded perturbation any idle CPU is a
        legal placement (an affinity tie-break).
        """
        entry = self._entries.pop(proc.pid)
        entry[3] = False
        home = entry[4]
        heap = self._heaps[home]
        while heap and not heap[0][3]:
            heappop(heap)
        depth = self._depth[home] - 1
        self._depth[home] = depth
        self._cpu_ks[home]["runq_depth"] = depth
        idle = self._idle
        last = proc.last_cpu
        if self._perturb_place and len(idle) > 1:
            cpu = self._rng.choice(idle)
        else:
            cpu = None
            for candidate in idle:
                idx = candidate.idx
                if idx == home:
                    cpu = candidate
                    break
                if idx == last:
                    cpu = candidate
            if cpu is None:
                cpu = idle[0]
        idle.remove(cpu)
        proc.state = RUNNING
        idx = cpu.idx
        if last is not None:
            if idx == last:
                self.affinity_hits += 1
                self._kernel_ks["sched_affinity_hits"] += 1
            else:
                self.migrations += 1
                self._kernel_ks["sched_migrations"] += 1
        if idx != home:
            self.steals += 1
            self._kernel_ks["sched_steals"] += 1
            self._cpu_ks[idx]["runq_steals"] += 1
        cpu.assign(proc)

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

    Kept as the ablation baseline for experiment E15: ``_dispatch``
    scans every runnable process per decision and ``should_preempt``
    re-scans the whole queue at every quantum expiry, the O(n) hot path
    the per-CPU scheduler removes.  Placement ignores ``last_cpu``, so
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
        """No-op: ``_dispatch`` reads priorities live off the global queue."""

    def _dispatch(self) -> None:
        """Fill idle CPUs until no eligible work remains.  Each decision
        takes the first queued process of the best priority (O(n)) and
        places it on whichever CPU went idle first."""
        idle = self._idle
        queue = self._queue
        while idle:
            self.picks += 1
            self.scan_steps += len(queue)
            best: Optional[Proc] = None
            for proc in queue:
                if best is None or proc.pri < best.pri:
                    best = proc
            if best is None:
                return
            group = [best]
            if best.shaddr is not None and best.shaddr.gang:
                group = self._gang_take(best)
                if group is None:
                    return
            for proc in group:
                cpu = idle.pop(0)
                queue.remove(proc)
                proc.state = RUNNING
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
