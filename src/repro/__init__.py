"""repro — a reproduction of "Enhanced Resource Sharing in UNIX"
(J. M. Barton & J. C. Wagner, Winter 1988 USENIX / Computing Systems 1(2)).

The package implements *process share groups* — ``sproc(2)`` with
per-resource share masks and ``prctl(2)`` — on top of a from-scratch
simulated System V.3 multiprocessor kernel: region-model virtual memory,
software-managed TLBs, a run-queue scheduler, an in-memory filesystem,
signals, pipes, System V IPC, local sockets, and a Mach-style threads
baseline.

Quick start::

    from repro import System, PR_SALL

    def worker(api, arg):
        yield from api.compute(10_000)
        return 0

    def main(api, arg):
        for _ in range(4):
            yield from api.sproc(worker, PR_SALL)
        for _ in range(4):
            yield from api.wait()
        return 0

    sim = System(ncpus=4)
    sim.spawn(main)
    sim.run()
"""

from repro.errors import DeadlockError, SimulationError, SysError, errno_name
from repro.fs.file import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.ipc.sysv_shm import IPC_CREAT, IPC_EXCL, IPC_PRIVATE
from repro.kernel.kernel import Kernel, ProgramImage
from repro.kernel.proccalls import status_code, status_exited, status_signal
from repro.kernel.signals import (
    SIG_DFL,
    SIG_IGN,
    SIGBUS,
    SIGCHLD,
    SIGHUP,
    SIGINT,
    SIGKILL,
    SIGPIPE,
    SIGSEGV,
    SIGTERM,
    SIGUSR1,
    SIGUSR2,
)
from repro.kernel.syscalls import UserAPI
from repro.mem.layout import PRDA_BASE
from repro.share.mask import (
    PR_FDS,
    PR_SADDR,
    PR_SALL,
    PR_SDIR,
    PR_SFDS,
    PR_SID,
    PR_SULIMIT,
    PR_SUMASK,
)
from repro.share.prctl import (
    PR_GETGANG,
    PR_GETNSHARE,
    PR_GETSHMASK,
    PR_GETSTACKSIZE,
    PR_MAXPPROCS,
    PR_MAXPROCS,
    PR_SETGANG,
    PR_SETSHMASK,
    PR_SETSTACKSIZE,
    PR_UNSHARE,
)
from repro.sim.costs import CostModel, default_costs
from repro.system import System

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "DeadlockError",
    "IPC_CREAT",
    "IPC_EXCL",
    "IPC_PRIVATE",
    "Kernel",
    "O_APPEND",
    "O_CREAT",
    "O_EXCL",
    "O_RDONLY",
    "O_RDWR",
    "O_TRUNC",
    "O_WRONLY",
    "PRDA_BASE",
    "PR_FDS",
    "PR_GETGANG",
    "PR_GETNSHARE",
    "PR_GETSHMASK",
    "PR_GETSTACKSIZE",
    "PR_MAXPPROCS",
    "PR_MAXPROCS",
    "PR_SADDR",
    "PR_SALL",
    "PR_SDIR",
    "PR_SETGANG",
    "PR_SETSHMASK",
    "PR_SETSTACKSIZE",
    "PR_SFDS",
    "PR_SID",
    "PR_SULIMIT",
    "PR_SUMASK",
    "PR_UNSHARE",
    "ProgramImage",
    "SEEK_CUR",
    "SEEK_END",
    "SEEK_SET",
    "SIGBUS",
    "SIGCHLD",
    "SIGHUP",
    "SIGINT",
    "SIGKILL",
    "SIGPIPE",
    "SIGSEGV",
    "SIGTERM",
    "SIGUSR1",
    "SIGUSR2",
    "SIG_DFL",
    "SIG_IGN",
    "SimulationError",
    "SysError",
    "System",
    "UserAPI",
    "default_costs",
    "errno_name",
    "status_code",
    "status_exited",
    "status_signal",
]
