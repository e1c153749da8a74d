"""The System facade: one object that owns a machine and its kernel.

This is the library's main entry point:

    from repro import System, PR_SALL

    def child(api, arg):
        yield from api.compute(1000)
        return 0

    def main(api, arg):
        pid = yield from api.sproc(child, PR_SALL)
        yield from api.wait()
        return 0

    sim = System(ncpus=4)
    sim.spawn(main)
    sim.run()

Programs communicate results back to the host through any plain Python
object passed as ``arg`` (a dict or list) — that channel is host-side
instrumentation and costs no simulated cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import DeadlockError
from repro.kernel.kernel import Kernel, ProgramImage
from repro.kernel.proc import Proc, ProcState
from repro.sim.costs import CostModel
from repro.sim.machine import Machine
from repro.sync.sharedlock import SharedReadLock


class System:
    """A booted simulated machine."""

    def __init__(
        self,
        ncpus: int = 4,
        memory_mb: int = 32,
        costs: Optional[CostModel] = None,
        tlb_capacity: int = 64,
        share_groups_enabled: bool = True,
        batched_flag_test: bool = True,
        vm_lock_factory=SharedReadLock,
        metrics_enabled: bool = True,
        scheduler="percpu",
        lockdep: bool = False,
        perturb_seed: Optional[int] = None,
        perturb_features: Optional[Iterable[str]] = None,
        inject: Optional[Dict[str, str]] = None,
        vm_index: str = "indexed",
        engine_loop: Optional[str] = None,
    ):
        self.machine = Machine(
            ncpus=ncpus,
            memory_bytes=memory_mb * 1024 * 1024,
            costs=costs,
            tlb_capacity=tlb_capacity,
            metrics_enabled=metrics_enabled,
            lockdep_enabled=lockdep,
            seed=perturb_seed,
            perturb=perturb_features,
            vm_index=vm_index,
            engine_loop=engine_loop,
        )
        if inject:
            self.machine.inject.arm_many(inject)
        self.kernel = Kernel(
            self.machine,
            share_groups_enabled=share_groups_enabled,
            batched_flag_test=batched_flag_test,
            vm_lock_factory=vm_lock_factory,
            scheduler=scheduler,
        )
        self.engine = self.machine.engine

    # ------------------------------------------------------------------
    # setup

    def register_program(
        self,
        path: str,
        func: Callable,
        name: Optional[str] = None,
        text_bytes: int = 64 * 1024,
        data_bytes: int = 128 * 1024,
    ) -> ProgramImage:
        """Install an executable at ``path`` for later ``exec``."""
        name = name or path.rsplit("/", 1)[-1]
        return self.kernel.register_program(
            name, func, text_bytes, data_bytes, path=path
        )

    def spawn(self, func: Callable, arg=0, name: str = "init", uid: int = 0) -> Proc:
        """Create and start a top-level process."""
        return self.kernel.spawn(func, arg, name=name, uid=uid)

    # ------------------------------------------------------------------
    # execution

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> int:
        """Drive the simulation; returns the final cycle count.

        With ``check_deadlock`` (the default) a drained event queue while
        non-zombie processes still exist raises :class:`DeadlockError` —
        invaluable when a test workload loses a wakeup.
        """
        self.engine.run(until=until, max_events=max_events)
        if check_deadlock and until is None and max_events is None:
            stuck = self.blocked_procs()
            if stuck:
                raise DeadlockError(
                    "simulation drained with blocked processes: %s"
                    % [(p.pid, p.name, p.state.value) for p in stuck]
                )
        return self.engine.now

    def blocked_procs(self):
        return [
            proc
            for proc in self.kernel.proc_table.all_procs()
            if proc.state not in (ProcState.ZOMBIE,) and proc.alive()
        ]

    # ------------------------------------------------------------------
    # observability

    @property
    def now(self) -> int:
        return self.engine.now

    @property
    def stats(self):
        return self.kernel.stats

    @property
    def kstat(self):
        """The machine's kstat counter registry."""
        return self.machine.kstat

    @property
    def lockstats(self):
        """The machine's lock-contention profile registry."""
        return self.machine.lockstats

    @property
    def lockdep(self):
        """The machine's lock dependency checker (NULL_LOCKDEP when off)."""
        return self.machine.lockdep

    def metrics(self) -> dict:
        """A plain-dict snapshot of every counter, gauge and histogram.

        Shape: ``{"cycles", "kstat": {kind: {ident: {name: value}}},
        "locks": {name: {...}}, "stats": {...}}`` — everything is
        JSON-serialisable and detached from live state.
        """
        return {
            "cycles": self.engine.now,
            "kstat": self.machine.kstat.snapshot(),
            "locks": self.machine.lockstats.snapshot(),
            "stats": dict(self.kernel.stats),
        }

    def report(self, top_locks: int = 10) -> str:
        """A /proc-style text report of the whole system (see obs.procfs)."""
        from repro.obs.procfs import render_system

        return render_system(self, top_locks=top_locks)

    def proc(self, pid: int) -> Optional[Proc]:
        return self.kernel.proc_table.get(pid)
