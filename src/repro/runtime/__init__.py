"""User-level runtime library: locks, arenas, work pools, async I/O.

This layer plays the role of the C library in the paper's world — it
lives entirely in guest memory and uses only user-mode instructions plus
ordinary system calls, so everything here works identically on the
simulated uniprocessor and multiprocessor.
"""

from repro.runtime.aio import AIO_READ, AIO_WRITE, AioRing, aio_worker
from repro.runtime.prda import PRDA_ERRNO, PRDA_SCRATCH, PRDA_USER, PRDA_USER_SIZE
from repro.runtime.hybridlock import HybridLock
from repro.runtime.shmalloc import Arena, SIZE_CLASSES
from repro.runtime.ulocks import UBarrier, USpinLock
from repro.runtime.workqueue import WorkQueue

__all__ = [
    "AIO_READ",
    "AIO_WRITE",
    "AioRing",
    "Arena",
    "HybridLock",
    "PRDA_ERRNO",
    "PRDA_SCRATCH",
    "PRDA_USER",
    "PRDA_USER_SIZE",
    "SIZE_CLASSES",
    "UBarrier",
    "USpinLock",
    "WorkQueue",
    "aio_worker",
]
