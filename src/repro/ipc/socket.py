"""Local stream sockets with descriptor passing.

This models the Berkeley path the paper contrasts against: a queueing and
data-copying interface with per-transfer socket-layer bookkeeping (mbuf
management and the like, folded into ``socket_op``).  Descriptor passing
(``sendfd``/``recvfd``) implements the paper's introduction example — a
network server performing security checks and handing an open descriptor
to a waiting child — so experiment E10 can compare it directly against
the share group's automatic descriptor sharing.
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
    EPIPE,
    SysError,
)
from repro.sync.semaphore import Semaphore

#: per-direction buffer capacity
SOCK_BUF = 8192


class Socket:
    """One endpoint of a (possibly not-yet-connected) stream socket."""

    def __init__(self, machine, waker):
        self.machine = machine
        self.waker = waker
        self.peer: Optional["Socket"] = None
        self.bound_name: Optional[str] = None
        self.listening = False
        self.backlog: Deque["Socket"] = deque()
        self.backlog_max = 0
        self.closed = False

        # receive side state (peer pushes into these)
        self.rbuf = bytearray()
        self.rfds: Deque = deque()  #: passed descriptors awaiting recvfd
        self.read_wait = Semaphore(machine, waker, 0, "sock.read")
        self.write_wait = Semaphore(machine, waker, 0, "sock.write")
        self.accept_wait = Semaphore(machine, waker, 0, "sock.accept")
        # Banked waiter counts (paid out with v()) close the window
        # between a blocker's buffer check and its sleep; see fs/pipe.py.
        self.read_waiters = 0
        self.write_waiters = 0
        self.bytes_moved = 0

    def _wake_readers(self) -> None:
        for _ in range(self.read_waiters):
            self.read_wait.v()
        self.read_waiters = 0

    def _wake_writers(self) -> None:
        for _ in range(self.write_waiters):
            self.write_wait.v()
        self.write_waiters = 0

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self.closed else (
            "listening" if self.listening else
            ("connected" if self.peer is not None else "fresh")
        )
        return "<Socket %s>" % state

    # ------------------------------------------------------------------
    # connection setup

    def connect_to(self, server: "Socket") -> "Socket":
        """Create the server-side endpoint and queue it for accept."""
        if not server.listening:
            raise SysError(ECONNREFUSED)
        if len(server.backlog) >= server.backlog_max:
            raise SysError(ECONNREFUSED, "backlog full")
        other = Socket(self.machine, self.waker)
        self.peer = other
        other.peer = self
        server.backlog.append(other)
        server.accept_wait.v()
        return other

    def accept_one(self, proc):
        """Generator: block until a queued connection arrives."""
        while True:
            if self.backlog:
                return self.backlog.popleft()
            if self.closed:
                raise SysError(EINVAL, "listener closed")
            ok = yield from self.accept_wait.p(proc, interruptible=True)
            if not ok:
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # data transfer (generators; kernel layer charges costs)

    def send(self, proc, payload: bytes, kernel):
        peer = self.peer
        if peer is None:
            raise SysError(ENOTCONN)
        sent = 0
        while sent < len(payload):
            if peer.closed:
                from repro.kernel.signals import SIGPIPE

                kernel.psignal(proc, SIGPIPE)
                raise SysError(EPIPE)
            space = SOCK_BUF - len(peer.rbuf)
            if space > 0:
                chunk = payload[sent:sent + space]
                peer.rbuf.extend(chunk)
                sent += len(chunk)
                peer.bytes_moved += len(chunk)
                peer._wake_readers()
                continue
            self.write_waiters += 1
            ok = yield from self.write_wait.p(proc, interruptible=True)
            if not ok:
                self.write_waiters = max(self.write_waiters - 1, 0)
                raise SysError(EINTR)
        return sent

    def recv(self, proc, nbytes: int):
        while True:
            if self.rbuf:
                take = min(nbytes, len(self.rbuf))
                chunk = bytes(self.rbuf[:take])
                del self.rbuf[:take]
                if self.peer is not None:
                    self.peer._wake_writers()
                return chunk
            if self.peer is None or self.peer.closed:
                return b""  # EOF
            self.read_waiters += 1
            ok = yield from self.read_wait.p(proc, interruptible=True)
            if not ok:
                self.read_waiters = max(self.read_waiters - 1, 0)
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # descriptor passing

    def push_fd(self, file) -> None:
        """Queue a held File for the peer's recvfd."""
        self.rfds.append(file)
        self._wake_readers()

    def pop_fd(self, proc):
        """Generator: block until a passed descriptor arrives."""
        while True:
            if self.rfds:
                return self.rfds.popleft()
            if self.peer is None or self.peer.closed:
                raise SysError(ENOTCONN, "peer gone, no descriptor")
            self.read_waiters += 1
            ok = yield from self.read_wait.p(proc, interruptible=True)
            if not ok:
                self.read_waiters = max(self.read_waiters - 1, 0)
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # teardown

    def on_last_close(self) -> None:
        self.closed = True
        # drop any still-queued passed descriptors
        while self.rfds:
            self.rfds.popleft().release()
        if self.peer is not None:
            self.peer._wake_readers()
            self.peer._wake_writers()
        for queued in self.backlog:
            queued.closed = True
            if queued.peer is not None:
                queued.peer._wake_readers()
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
