"""The simulated multiprocessor: CPUs, physical memory, ASIDs, shootdowns.

The machine is deliberately close to the paper's target: a MIPS R2000
based shared-memory multiprocessor with per-CPU software-managed TLBs.
The kernel object (:mod:`repro.kernel.kernel`) is built on top of one
machine and wires itself into every CPU at boot.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.inject import FailPointRegistry
from repro.mem.frames import FrameAllocator, PAGE_SIZE
from repro.obs.kstat import KstatRegistry
from repro.obs.lockdep import LockDep, NULL_LOCKDEP
from repro.obs.lockstat import LockStatRegistry
from repro.sim.costs import CostModel, default_costs
from repro.sim.cpu import CPU
from repro.sim.engine import ENGINE_LOOP_MODES, Engine


#: pregion-lookup / TLB-flush strategies: "indexed" is the fast path,
#: "linear" the pre-index ablation (mirrors ``scheduler="global"``)
VM_INDEX_MODES = ("indexed", "linear")


class Machine:
    """N CPUs sharing a physical memory and a cycle-accurate event clock."""

    def __init__(
        self,
        ncpus: int = 4,
        memory_bytes: int = 32 * 1024 * 1024,
        costs: Optional[CostModel] = None,
        tlb_capacity: int = 64,
        metrics_enabled: bool = True,
        lockdep_enabled: bool = False,
        seed: Optional[int] = None,
        perturb: Optional[Iterable[str]] = None,
        vm_index: str = "indexed",
        engine_loop: Optional[str] = None,
    ):
        if ncpus <= 0:
            raise ValueError("need at least one CPU")
        if vm_index not in VM_INDEX_MODES:
            raise ValueError(
                "unknown vm_index %r (choose from %s)"
                % (vm_index, ", ".join(VM_INDEX_MODES))
            )
        if engine_loop is not None and engine_loop not in ENGINE_LOOP_MODES:
            raise ValueError(
                "unknown engine_loop %r (choose from %s)"
                % (engine_loop, ", ".join(ENGINE_LOOP_MODES))
            )
        # Must be set before the CPUs exist: each CPU's TLB keys its
        # per-ASID index decision off this flag.
        self.vm_index = vm_index
        self.engine = Engine(seed=seed, perturb=perturb, loop=engine_loop)
        self.costs = costs if costs is not None else default_costs()
        self.costs.validate()
        self.frames = FrameAllocator(memory_bytes // PAGE_SIZE)
        # Observability registries live on the machine so every lock and
        # CPU can reach them without a kernel reference; collection is
        # host-side and charges no simulated cycles.
        self.kstat = KstatRegistry(enabled=metrics_enabled)
        self.lockstats = LockStatRegistry(enabled=metrics_enabled)
        self.lockdep = LockDep(self) if lockdep_enabled else NULL_LOCKDEP
        # Fault injection shares the observability plumbing: one registry
        # per machine, handed to the few leaf allocators that cannot
        # reach the kernel object.
        self.inject = FailPointRegistry(self.kstat)
        self.frames.inject = self.inject
        self.cpus: List[CPU] = [CPU(i, self, tlb_capacity) for i in range(ncpus)]
        self._next_asid = 0
        self.shootdowns = 0

    @property
    def ncpus(self) -> int:
        return len(self.cpus)

    # ------------------------------------------------------------------
    # address-space IDs

    def alloc_asid(self) -> int:
        """Allocate a fresh address-space ID.

        Real R2000 hardware has 64 ASIDs and recycles them with a global
        flush; the simulation never recycles (IDs are unbounded ints) but
        keeps the per-address-space keying, which is what matters for the
        share-group warm-TLB effect.
        """
        self._next_asid += 1
        return self._next_asid

    # ------------------------------------------------------------------
    # TLB maintenance

    def shootdown_cost(self) -> int:
        """Cycles the initiator pays for a synchronous all-CPU flush."""
        return self.costs.tlb_shootdown_percpu * self.ncpus

    def tlb_shootdown(self, asid: Optional[int] = None) -> int:
        """Synchronously flush every CPU's TLB (section 6.2 of the paper).

        Performed while the caller holds the shared pregion update lock:
        any running group member immediately TLB-misses, traps into the
        kernel, and blocks on the shared read lock until the update is
        done.  Returns the cycle cost the initiator must charge.
        """
        for cpu in self.cpus:
            if asid is None:
                cpu.tlb.flush_all()
            else:
                cpu.tlb.flush_asid(asid)
            cpu.tlb.shootdowns += 1
        self.shootdowns += 1
        return self.shootdown_cost()

    def tlb_shootdown_range(self, asid: int, vpn_lo: int, vpn_hi: int) -> int:
        """Targeted shootdown: flush one VPN window of one space everywhere.

        Same synchronous protocol and initiator cost as a full
        :meth:`tlb_shootdown`, but every other warm translation —
        including the rest of this address space — survives, so group
        members do not refill their whole working set afterwards.
        """
        for cpu in self.cpus:
            cpu.tlb.flush_range(asid, vpn_lo, vpn_hi)
            cpu.tlb.shootdowns += 1
        self.shootdowns += 1
        return self.shootdown_cost()

    def tlb_flush_page(self, asid: int, vpn: int) -> None:
        """Drop one translation everywhere (cheap, used on COW breaks)."""
        for cpu in self.cpus:
            cpu.tlb.flush_page(asid, vpn)

    def tlb_flush_range(self, asid: int, vpn_lo: int, vpn_hi: int) -> None:
        """Drop one VPN window everywhere without shootdown accounting.

        Structural helper for non-sharing address spaces, where no other
        CPU can be running the victim space mid-update; the caller
        charges whatever local flush cost applies.
        """
        for cpu in self.cpus:
            cpu.tlb.flush_range(asid, vpn_lo, vpn_hi)

    # ------------------------------------------------------------------
    # introspection

    def idle_cpus(self) -> List[CPU]:
        return [cpu for cpu in self.cpus if cpu.current is None]

    def utilization(self) -> float:
        """Mean fraction of elapsed cycles the CPUs spent busy."""
        if self.engine.now == 0:
            return 0.0
        busy = sum(cpu.busy_cycles for cpu in self.cpus)
        return busy / (self.engine.now * self.ncpus)
