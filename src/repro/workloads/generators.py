"""Deterministic workload generators for tests and benchmarks.

Everything is seeded: the same parameters always produce the same bytes
and the same task lists, so benchmark runs are exactly reproducible.
``Date``-free and ``random``-free by design.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Iterator, List


def lcg(seed: int) -> Iterator[int]:
    """A 32-bit linear congruential generator (Numerical Recipes params)."""
    state = seed & 0xFFFFFFFF
    while True:
        state = (1664525 * state + 1013904223) & 0xFFFFFFFF
        yield state


def words(count: int, seed: int = 1) -> List[int]:
    """``count`` deterministic 16-bit values."""
    gen = lcg(seed)
    return [next(gen) & 0xFFFF for _ in range(count)]


def payload(nbytes: int, seed: int = 1) -> bytes:
    """``nbytes`` of deterministic pseudo-random bytes: the generator's
    words, little-endian, packed in one call and cut to ``nbytes``."""
    if nbytes <= 0:
        return b""
    count = (nbytes + 3) // 4
    return struct.pack("<%dI" % count, *islice(lcg(seed), count))[:nbytes]


def task_costs(ntasks: int, mean_cycles: int, seed: int = 7) -> List[int]:
    """Per-task compute costs, uniform in [mean/2, 3*mean/2]."""
    gen = lcg(seed)
    half = max(mean_cycles // 2, 1)
    return [half + next(gen) % (2 * half) for _ in range(ntasks)]


def checksum(data: bytes) -> int:
    """A cheap order-sensitive checksum used to verify transfers."""
    total = 0
    for index, byte in enumerate(data):
        total = (total + (index + 1) * byte) & 0xFFFFFFFF
    return total


def pack_words(values: List[int]) -> bytes:
    return b"".join((v & 0xFFFFFFFF).to_bytes(4, "little") for v in values)


def unpack_words(data: bytes) -> List[int]:
    return [
        int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data), 4)
    ]
