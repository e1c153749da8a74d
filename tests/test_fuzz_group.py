"""Concurrency fuzzing: random share-group members hammer the kernel.

Several members run independently generated op lists at once on a
multiprocessor; afterwards the same global health invariants must hold.
This exercises the shared read lock, the sync-on-entry protocol and the
sharing teardown paths under arbitrary interleavings.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import O_CREAT, O_RDWR, PR_SALL, System
from repro.mem.frames import PAGE_SIZE

MEMBER_OPS = st.sampled_from([
    "store", "load", "fetch_add", "open", "close_last", "chdir",
    "umask", "mmap", "munmap_own", "getpid", "compute", "write",
])


def _member(api, ctx):
    ops, arena, tag = ctx["ops"], ctx["arena"], ctx["tag"]
    opened = []
    mapped = []
    serial = 0
    for op in ops:
        serial += 1
        if op == "store":
            yield from api.store_word(arena + (tag * 64) % 4096, serial)
        elif op == "load":
            yield from api.load_word(arena + (serial * 8) % 4096)
        elif op == "fetch_add":
            yield from api.fetch_add(arena, 1)
        elif op == "open":
            fd = yield from api.open(
                "/g%d-%d" % (tag, serial), O_RDWR | O_CREAT
            )
            if fd != -1:
                opened.append(fd)
        elif op == "close_last" and opened:
            yield from api.close(opened.pop())
        elif op == "chdir":
            yield from api.chdir("/")
        elif op == "umask":
            yield from api.umask((tag * serial) % 0o100)
        elif op == "mmap":
            base = yield from api.mmap(PAGE_SIZE)
            if base != -1:
                yield from api.store_word(base, tag)
                mapped.append(base)
        elif op == "munmap_own" and mapped:
            yield from api.munmap(mapped.pop())
        elif op == "getpid":
            yield from api.getpid()
        elif op == "compute":
            yield from api.compute(500)
        elif op == "write" and opened:
            yield from api.write(opened[-1], b"d" * (serial % 30 + 1))
    return 0


def _main(api, ctx):
    arena = yield from api.mmap(4096)
    for tag, ops in enumerate(ctx["programs"]):
        yield from api.sproc(
            _member, PR_SALL, {"ops": ops, "arena": arena, "tag": tag}
        )
    for _ in ctx["programs"]:
        yield from api.wait()
    return 0


def _healthy(sim):
    for proc in sim.kernel.proc_table.all_procs():
        assert proc.state is proc.ZOMBIE, proc
    for cpu in sim.machine.cpus:
        for entry in cpu.tlb.entries():
            assert entry.frame.refcount > 0, entry
    assert sim.machine.frames.allocated == 0
    assert sim.stats["groups_created"] == sim.stats["groups_freed"]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(st.lists(MEMBER_OPS, max_size=15), min_size=1, max_size=4),
    st.integers(1, 4),
)
def test_concurrent_member_programs_leave_kernel_healthy(programs, ncpus):
    sim = System(ncpus=ncpus, memory_mb=8)
    sim.spawn(_main, {"programs": programs})
    sim.run(max_events=3_000_000)
    assert sim.engine.idle()
    _healthy(sim)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.lists(MEMBER_OPS, max_size=10), min_size=2, max_size=3))
def test_concurrent_runs_are_deterministic(programs):
    def run():
        sim = System(ncpus=3, memory_mb=8)
        sim.spawn(_main, {"programs": [list(p) for p in programs]})
        sim.run(max_events=3_000_000)
        return sim.now, dict(sim.stats)

    assert run() == run()


def test_fetch_adds_never_lost_under_fuzz_mix():
    """A directed variant: interleave fetch_adds with churny ops and
    verify the exact count at the end."""
    programs = [
        ["fetch_add", "open", "fetch_add", "mmap", "fetch_add", "umask"],
        ["fetch_add", "chdir", "fetch_add", "close_last", "fetch_add"],
        ["fetch_add", "compute", "fetch_add", "munmap_own", "fetch_add"],
    ]
    expected = sum(ops.count("fetch_add") for ops in programs)
    out = {}

    def main(api, arg):
        arena = yield from api.mmap(4096)
        for tag, ops in enumerate(programs):
            yield from api.sproc(
                _member, PR_SALL, {"ops": ops, "arena": arena, "tag": tag}
            )
        for _ in programs:
            yield from api.wait()
        out["count"] = yield from api.load_word(arena)
        return 0

    sim = System(ncpus=4)
    sim.spawn(main)
    sim.run()
    assert out["count"] == expected
