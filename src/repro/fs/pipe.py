"""Pipes: the Version-7 queueing primitive.

Pipes are the baseline communication path the paper's Figure 1 world is
built on, and one of the comparison points for experiments E6/E7/E10.
Semantics follow classic UNIX: bounded buffer, readers block on empty,
writers block on full, EOF when the last writer closes, ``EPIPE`` (plus
``SIGPIPE``, raised by the kernel layer) when the last reader closes.
A stream socket connection is two of these, one each way.
"""

from __future__ import annotations

from repro.errors import EINTR, SysError
from repro.sync.semaphore import WaitQueue

#: classic pipe capacity (ten 512-byte blocks, as in V7)
PIPE_BUF = 5120


class BrokenPipe(Exception):
    """Raised to the kernel layer so it can post SIGPIPE before EPIPE."""


class Pipe:
    """A bounded in-kernel byte queue with blocking endpoints.

    ``name`` prefixes the two wait queues' lock names (``pipe.read``,
    ``pipe.write``; sockets pass ``sock``).
    """

    def __init__(self, machine, waker, capacity: int = PIPE_BUF,
                 name: str = "pipe"):
        self.capacity = capacity
        self._inject = machine.inject
        self.buffer = bytearray()
        self.readers = 1
        self.writers = 1
        self.readable = WaitQueue(machine, waker, name + ".read")
        self.writable = WaitQueue(machine, waker, name + ".write")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Pipe %d/%d r=%d w=%d>" % (
            len(self.buffer), self.capacity, self.readers, self.writers,
        )

    # ------------------------------------------------------------------
    # endpoint lifecycle (called from the kernel close path)

    def close_read_end(self) -> None:
        self.readers -= 1
        if self.readers == 0:
            self.writable.wake()  # writers must see EPIPE

    def close_write_end(self) -> None:
        self.writers -= 1
        if self.writers == 0:
            self.readable.wake()  # readers must see EOF

    # ------------------------------------------------------------------
    # data movement (generators; kernel charges copy costs)

    def read(self, proc, nbytes: int):
        """Take up to ``nbytes``; blocks while empty and writers remain."""
        while True:
            if self.buffer:
                take = min(nbytes, len(self.buffer))
                chunk = bytes(self.buffer[:take])
                del self.buffer[:take]
                if self.writable.waiters:
                    self.writable.wake()
                return chunk
            if self.writers == 0:
                return b""  # EOF
            if self._inject.fire("pipe.read.sleep"):
                raise SysError(EINTR, "injected: signal before pipe read sleep")
            if not (yield from self.readable.sleep(proc)):
                raise SysError(EINTR)

    def write(self, proc, payload: bytes):
        """Append all of ``payload``; blocks while the buffer is full.

        A signal that cuts a blocked write short returns the count
        already moved; only a write that moved nothing fails ``EINTR``.
        """
        written = 0
        while written < len(payload):
            if self.readers == 0:
                raise BrokenPipe()
            space = self.capacity - len(self.buffer)
            if space > 0:
                chunk = payload[written:written + space]
                self.buffer.extend(chunk)
                written += len(chunk)
                if self.readable.waiters:
                    self.readable.wake()
                continue
            if self._inject.fire("pipe.write.sleep") or not (
                yield from self.writable.sleep(proc)
            ):
                if written:
                    return written
                raise SysError(EINTR)
        return written
