"""Character devices: the little ones every UNIX ships.

Devices attach to ``CHR`` inodes; the kernel's read/write paths call
:meth:`Device.read`/``write`` synchronously (no seek, no latency — these
are memory-speed pseudo-devices).
"""

from __future__ import annotations


class Device:
    """Base character device."""

    name = "dev"

    def read(self, nbytes: int) -> bytes:
        raise NotImplementedError

    def write(self, payload: bytes) -> int:
        raise NotImplementedError


class NullDevice(Device):
    """/dev/null: reads EOF, writes vanish."""

    name = "null"

    def read(self, nbytes: int) -> bytes:
        return b""

    def write(self, payload: bytes) -> int:
        return len(payload)


class ZeroDevice(Device):
    """/dev/zero: endless zeroes."""

    name = "zero"

    def read(self, nbytes: int) -> bytes:
        return b"\x00" * nbytes

    def write(self, payload: bytes) -> int:
        return len(payload)
