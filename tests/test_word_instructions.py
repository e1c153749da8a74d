"""The 32-bit word instructions agree with the byte path they shortcut.

``load_word``/``store_word`` on an aligned word read and write the frame
in place; a misaligned word, in one page or straddling two, goes through
``load``/``store``.  Either way a word instruction must see the same
bytes, cost the same cycles and probe the TLB the same way as the
4-byte access it stands for.
"""

import pytest

from repro.mem.frames import PAGE_SIZE
from tests.conftest import run_program

#: offsets into a two-page mapping: aligned, misaligned in one page,
#: the last aligned word of a page, and a word straddling two pages
each_offset = pytest.mark.parametrize(
    "offset", [0, 2, PAGE_SIZE - 4, PAGE_SIZE - 2],
    ids=["aligned", "misaligned", "last-word", "straddling"],
)


@each_offset
@pytest.mark.parametrize("value", [-1, 0x1_2345_6789], ids=["minus-one", "wide"])
def test_store_word_writes_the_masked_little_endian_bytes(offset, value):
    def main(api, out):
        base = yield from api.mmap(2 * PAGE_SIZE)
        addr = base + offset
        yield from api.store_word(addr, value)
        out["bytes"] = yield from api.load(addr, 4)
        out["word"] = yield from api.load_word(addr)
        return 0

    out, _ = run_program(main)
    masked = value & 0xFFFFFFFF
    assert out["bytes"] == masked.to_bytes(4, "little")
    assert out["word"] == masked


def _timeline(op, offset):
    """End time and per-CPU TLB hits and misses of a program that runs
    ``op`` at ``base + offset`` twice (first touch, then warm)."""

    def main(api, out):
        base = yield from api.mmap(2 * PAGE_SIZE)
        for _ in range(2):
            yield from op(api, base + offset)
        return 0

    _, sim = run_program(main, ncpus=1)
    return (
        sim.now,
        [cpu.tlb.hits for cpu in sim.machine.cpus],
        [cpu.tlb.misses for cpu in sim.machine.cpus],
    )


@each_offset
def test_load_word_costs_what_a_four_byte_load_costs(offset):
    assert _timeline(lambda api, a: api.load_word(a), offset) == _timeline(
        lambda api, a: api.load(a, 4), offset
    )


@each_offset
def test_store_word_costs_what_a_four_byte_store_costs(offset):
    assert _timeline(
        lambda api, a: api.store_word(a, 0x0A0B0C0D), offset
    ) == _timeline(
        lambda api, a: api.store(a, b"\x0d\x0c\x0b\x0a"), offset
    )


@pytest.mark.parametrize(
    "offset", [0, PAGE_SIZE - 4], ids=["aligned", "last-word"])
def test_atomics_wrap_and_mask_at_32_bits(offset):
    def main(api, out):
        base = yield from api.mmap(2 * PAGE_SIZE)
        addr = base + offset
        yield from api.store_word(addr, 0xFFFFFFFF)
        out["fetched"] = yield from api.fetch_add(addr, 2)
        out["wrapped"] = yield from api.load_word(addr)
        out["observed"] = yield from api.cas(addr, 1, 0x1_0000_0007)
        out["swapped"] = yield from api.load(addr, 4)
        return 0

    out, _ = run_program(main)
    assert out["fetched"] == 0xFFFFFFFF
    assert out["wrapped"] == 1
    assert out["observed"] == 1
    assert out["swapped"] == (7).to_bytes(4, "little")
