"""IPC substrates: SysV shared memory and semaphores, and sockets."""

from repro.ipc.socket import SOCK_BUF, Socket, SocketNamespace
from repro.ipc.sysv_sem import SEMMSL, SemRegistry, SemSet
from repro.ipc.sysv_shm import (
    IPC_CREAT,
    IPC_EXCL,
    IPC_PRIVATE,
    ShmRegistry,
    ShmSegment,
)

__all__ = [
    "IPC_CREAT",
    "IPC_EXCL",
    "IPC_PRIVATE",
    "SEMMSL",
    "SOCK_BUF",
    "SemRegistry",
    "SemSet",
    "ShmRegistry",
    "ShmSegment",
    "Socket",
    "SocketNamespace",
]
