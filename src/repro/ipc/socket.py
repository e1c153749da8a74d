"""Local stream sockets with descriptor passing.

This models the Berkeley path the paper contrasts against: a queueing and
data-copying interface with per-transfer socket-layer bookkeeping (mbuf
management and the like, folded into ``socket_op``).  Descriptor passing
(``sendfd``/``recvfd``) implements the paper's introduction example — a
network server performing security checks and handing an open descriptor
to a waiting child — so experiment E10 can compare it directly against
the share group's automatic descriptor sharing.

A connection is two pipes (:class:`~repro.fs.pipe.Pipe`) of
:data:`SOCK_BUF` bytes, one each way; the kernel moves data through
them exactly as it does for ``pipe()``.  A socket itself keeps only its
name, its listen backlog and the queue of descriptors passed to it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import (
    EADDRINUSE,
    ECONNREFUSED,
    EINTR,
    EINVAL,
    ENOTCONN,
    SysError,
)
from repro.fs.pipe import Pipe
from repro.sync.semaphore import WaitQueue

#: per-direction buffer capacity
SOCK_BUF = 8192


class Socket:
    """One endpoint of a (possibly not-yet-connected) stream socket."""

    def __init__(self, machine, waker):
        self.machine = machine
        self.waker = waker
        self.peer: Optional["Socket"] = None
        #: the pipe this endpoint writes (its peer's ``rx``) and reads
        self.tx: Optional[Pipe] = None
        self.rx: Optional[Pipe] = None
        self.bound_name: Optional[str] = None
        self.listening = False
        self.backlog: Deque["Socket"] = deque()
        self.backlog_max = 0
        self.accept_wait = WaitQueue(machine, waker, "sock.accept")
        self.closed = False
        self.rfds: Deque = deque()  #: passed descriptors awaiting recvfd

    # ------------------------------------------------------------------
    # connection setup

    def pair(self, other: "Socket") -> None:
        """Connect two fresh endpoints with one pipe each way."""
        self.tx = other.rx = Pipe(self.machine, self.waker, SOCK_BUF, "sock")
        self.rx = other.tx = Pipe(self.machine, self.waker, SOCK_BUF, "sock")
        self.peer = other
        other.peer = self

    def connect_to(self, server: "Socket") -> "Socket":
        """Create the server-side endpoint and queue it for accept."""
        if not server.listening:
            raise SysError(ECONNREFUSED)
        if len(server.backlog) >= server.backlog_max:
            raise SysError(ECONNREFUSED, "backlog full")
        other = Socket(self.machine, self.waker)
        self.pair(other)
        server.backlog.append(other)
        server.accept_wait.wake(1)
        return other

    def accept_one(self, proc):
        """Generator: block until a queued connection arrives."""
        while True:
            if self.backlog:
                return self.backlog.popleft()
            if self.closed:
                raise SysError(EINVAL, "listener closed")
            if not (yield from self.accept_wait.sleep(proc)):
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # descriptor passing

    def push_fd(self, file) -> None:
        """Queue a held File for this endpoint's recvfd."""
        self.rfds.append(file)
        self.rx.readable.wake()

    def pop_fd(self, proc):
        """Generator: block until a passed descriptor arrives."""
        while True:
            if self.rfds:
                return self.rfds.popleft()
            if self.rx is None or self.rx.writers == 0:
                raise SysError(ENOTCONN, "peer gone, no descriptor")
            if not (yield from self.rx.readable.sleep(proc)):
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # teardown

    def on_last_close(self, dispose) -> None:
        """The last descriptor went; ``dispose`` drops one held File
        (the kernel's ``dispose_file``)."""
        self.closed = True
        while self.rfds:  # passed descriptors nobody received
            dispose(self.rfds.popleft())
        if self.tx is not None:
            self.tx.close_write_end()  # the peer's readers see EOF
            self.rx.close_read_end()  # the peer's writers see EPIPE
        for queued in self.backlog:
            queued.on_last_close(dispose)
        self.backlog.clear()


class SocketNamespace:
    """Bound names (the simulation's AF_UNIX-style address space)."""

    def __init__(self):
        self._names: Dict[str, Socket] = {}

    def bind(self, name: str, socket: Socket) -> None:
        existing = self._names.get(name)
        if existing is not None and not existing.closed:
            raise SysError(EADDRINUSE, name)
        self._names[name] = socket
        socket.bound_name = name

    def lookup(self, name: str) -> Socket:
        socket = self._names.get(name)
        if socket is None or socket.closed:
            raise SysError(ECONNREFUSED, name)
        return socket
