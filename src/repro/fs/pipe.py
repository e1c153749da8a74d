"""Pipes: the Version-7 queueing primitive.

Pipes are the baseline communication path the paper's Figure 1 world is
built on, and one of the comparison points for experiments E6/E7/E10.
Semantics follow classic UNIX: bounded buffer, readers block on empty,
writers block on full, EOF when the last writer closes, ``EPIPE`` (plus
``SIGPIPE``, raised by the kernel layer) when the last reader closes.
"""

from __future__ import annotations

from repro.errors import EINTR, SysError
from repro.sync.semaphore import Semaphore

#: classic pipe capacity (ten 512-byte blocks, as in V7)
PIPE_BUF = 5120


class BrokenPipe(Exception):
    """Raised to the kernel layer so it can post SIGPIPE before EPIPE."""


class Pipe:
    """A bounded in-kernel byte queue with blocking endpoints."""

    def __init__(self, machine, waker, capacity: int = PIPE_BUF):
        self.capacity = capacity
        self._inject = getattr(machine, "inject", None)
        self.buffer = bytearray()
        self.readers = 1
        self.writers = 1
        self._read_wait = Semaphore(machine, waker, 0, "pipe.read")
        self._write_wait = Semaphore(machine, waker, 0, "pipe.write")
        # Waiter counts are banked *before* sleeping and paid out with
        # v() (which increments when nobody sleeps yet), so a wakeup
        # issued between a blocker's buffer check and its sleep is never
        # lost.
        self._read_waiters = 0
        self._write_waiters = 0
        self.bytes_moved = 0

    def _wake_readers(self) -> None:
        for _ in range(self._read_waiters):
            self._read_wait.v()
        self._read_waiters = 0

    def _wake_writers(self) -> None:
        for _ in range(self._write_waiters):
            self._write_wait.v()
        self._write_waiters = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Pipe %d/%d r=%d w=%d>" % (
            len(self.buffer), self.capacity, self.readers, self.writers,
        )

    # ------------------------------------------------------------------
    # endpoint lifecycle (called from the kernel close path)

    def close_read_end(self) -> None:
        self.readers -= 1
        if self.readers == 0:
            self._wake_writers()  # writers must see EPIPE

    def close_write_end(self) -> None:
        self.writers -= 1
        if self.writers == 0:
            self._wake_readers()  # readers must see EOF

    # ------------------------------------------------------------------
    # data movement (generators; kernel charges copy costs)

    def read(self, proc, nbytes: int):
        """Take up to ``nbytes``; blocks while empty and writers remain."""
        while True:
            if self.buffer:
                take = min(nbytes, len(self.buffer))
                chunk = bytes(self.buffer[:take])
                del self.buffer[:take]
                self.bytes_moved += take
                self._wake_writers()
                return chunk
            if self.writers == 0:
                return b""  # EOF
            if self._inject is not None and self._inject.fire("pipe.read.sleep"):
                raise SysError(EINTR, "injected: signal before pipe read sleep")
            self._read_waiters += 1
            ok = yield from self._read_wait.p(proc, interruptible=True)
            if not ok:
                # Our banked wakeup claim must go with us, or the next
                # _wake_readers over-credits the semaphore.
                self._read_waiters = max(self._read_waiters - 1, 0)
                raise SysError(EINTR)

    def write(self, proc, payload: bytes):
        """Append all of ``payload``; blocks while the buffer is full."""
        written = 0
        while written < len(payload):
            if self.readers == 0:
                raise BrokenPipe()
            space = self.capacity - len(self.buffer)
            if space > 0:
                chunk = payload[written:written + space]
                self.buffer.extend(chunk)
                written += len(chunk)
                self._wake_readers()
                continue
            if self._inject is not None and self._inject.fire("pipe.write.sleep"):
                raise SysError(EINTR, "injected: signal before pipe write sleep")
            self._write_waiters += 1
            ok = yield from self._write_wait.p(proc, interruptible=True)
            if not ok:
                self._write_waiters = max(self._write_waiters - 1, 0)
                raise SysError(EINTR)
        return written
