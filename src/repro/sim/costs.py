"""The cycle cost model.

Every cycle charged anywhere in the simulated kernel or hardware comes
from a named constant in :class:`CostModel`, so experiments can state
exactly what they assume and ablations can turn individual costs on and
off.  Defaults approximate 1988-era relative magnitudes on a MIPS R2000
class multiprocessor (the paper's target machine): memory references cost
tens of cycles, trap entry hundreds, a context switch or a page copy
thousands.  Absolute values are not meaningful — the reproduction targets
*shapes* (orderings, ratios, crossovers), which are governed by these
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict


@dataclass
class CostModel:
    """Cycle costs charged by the simulated hardware and kernel."""

    # ---------------------------------------------------------------- memory
    mem_access: int = 20  #: base cost of one user memory reference
    mem_per_word: int = 1  #: additional cost per 4 bytes moved
    cas: int = 30  #: atomic read-modify-write (interlocked bus op)

    # ------------------------------------------------------------------- TLB
    tlb_refill: int = 40  #: software TLB refill, private mapping fast path
    tlb_flush_local: int = 50  #: flush this CPU's TLB
    tlb_shootdown_percpu: int = 400  #: synchronous cross-CPU flush, per CPU

    # --------------------------------------------------------------- faulting
    fault_entry: int = 300  #: trap into the kernel for a page fault
    page_zero: int = 1000  #: demand-zero a fresh page
    page_copy: int = 2000  #: copy a 4 KB page (COW break)
    pt_copy_per_page: int = 8  #: duplicate one page-table entry on fork

    # --------------------------------------------------------------- syscalls
    syscall_entry: int = 150  #: trap + register save + kernel entry
    syscall_exit: int = 100  #: return-to-user path
    flag_batch_test: int = 2  #: single batched test of the p_flag sync bits
    flag_single_test: int = 10  #: one unbatched per-resource check (ablation)
    resource_sync: int = 100  #: re-sync one shared resource from the shaddr

    # ------------------------------------------------------------- scheduling
    context_switch: int = 1200  #: full switch to a different address space
    context_switch_same_as: int = 400  #: switch within the same address space
    dispatch: int = 200  #: pick next proc off the run queue
    quantum: int = 100_000  #: round-robin time slice
    wakeup: int = 60  #: make a sleeping process runnable

    # ------------------------------------------------------------------ locks
    spin_acquire: int = 5  #: uncontended spinlock acquire/release
    spin_poll: int = 10  #: one polling iteration while spinning
    sema_op: int = 30  #: semaphore bookkeeping (excl. sleep/wakeup)

    # -------------------------------------------------------- process mgmt
    proc_alloc: int = 800  #: proc-table slot, u-area, kernel stack setup
    uarea_copy: int = 600  #: duplicate the u-area (fd table, dirs, handlers)
    pregion_dup: int = 200  #: duplicate one pregion (fork path)
    region_create: int = 250  #: allocate a fresh region
    region_attach: int = 80  #: attach a region to a pregion list
    exec_image: int = 1500  #: overlay a new program image
    exit_teardown: int = 600  #: release a dying process's resources
    thread_alloc: int = 280  #: Mach-style thread: kernel stack + state only
    signal_deliver: int = 400  #: build and tear down a signal frame

    # -------------------------------------------------------------------- I/O
    copyio_per_word: int = 1  #: kernel<->user copy, per 4 bytes
    file_io_base: int = 200  #: per read/write call bookkeeping
    disk_latency: int = 20_000  #: simulated device latency for REG file data
    pipe_op: int = 120  #: pipe bookkeeping per transfer
    socket_op: int = 350  #: socket layer bookkeeping per transfer (mbufs etc.)

    def replace(self, **overrides: int) -> "CostModel":
        """Return a copy with the given costs overridden."""
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        """Reject non-positive costs (zero is allowed only for ablations)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value < 0:
                raise ValueError("cost %s must be a non-negative int, got %r" % (f.name, value))


def default_costs() -> CostModel:
    """The standard calibration used by tests and benchmarks."""
    return CostModel()
