"""User-level runtime: spinlocks, barriers, arena, work queue, aio."""


from repro import O_CREAT, O_RDWR, PR_SALL, status_code
from repro.runtime import AioRing, Arena, UBarrier, USpinLock, WorkQueue
from tests.conftest import run_program


def test_uspinlock_protects_critical_section():
    def member(api, base):
        lock = USpinLock(base)
        for _ in range(30):
            yield from lock.acquire(api)
            v = yield from api.load_word(base + 8)
            yield from api.compute(20)
            yield from api.store_word(base + 8, v + 1)
            yield from lock.release(api)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        for _ in range(3):
            yield from api.sproc(member, PR_SALL, base)
        for _ in range(3):
            yield from api.wait()
        out["count"] = yield from api.load_word(base + 8)
        return 0

    out, _ = run_program(main, ncpus=4)
    assert out["count"] == 90


def test_uspinlock_try_acquire():
    def main(api, out):
        base = yield from api.mmap(4096)
        lock = USpinLock(base)
        out["first"] = yield from lock.try_acquire(api)
        out["second"] = yield from lock.try_acquire(api)
        yield from lock.release(api)
        out["third"] = yield from lock.try_acquire(api)
        return 0

    out, _ = run_program(main)
    assert out["first"] and not out["second"] and out["third"]


def test_barrier_synchronizes_phases():
    """Nobody may enter phase 2 until everyone finished phase 1."""

    def member(api, ctx):
        base, nprocs, slot = ctx
        barrier = UBarrier(base, nprocs)
        # phase 1: mark arrival
        yield from api.store_word(base + 16 + slot * 4, 1)
        yield from barrier.wait(api)
        # phase 2: verify everyone's phase-1 mark is visible
        for other in range(nprocs):
            seen = yield from api.load_word(base + 16 + other * 4)
            if seen != 1:
                return 1
        return 0

    def main(api, out):
        nprocs = 4
        base = yield from api.mmap(4096)
        barrier = UBarrier(base, nprocs + 1)
        for slot in range(nprocs):
            yield from api.sproc(member, PR_SALL, (base, nprocs + 1, slot))
        yield from api.store_word(base + 16 + nprocs * 4, 1)
        # the parent is the (n+1)-th participant... it has no slot check
        codes = []
        yield from UBarrier(base, nprocs + 1).wait(api)
        for _ in range(nprocs):
            _, status = yield from api.wait()
            codes.append(status_code(status))
        out["codes"] = codes
        return 0

    out, _ = run_program(main, ncpus=4)
    assert out["codes"] == [0, 0, 0, 0]


def test_barrier_reusable_across_generations():
    def member(api, ctx):
        base, n = ctx
        barrier = UBarrier(base, n)
        for _ in range(5):
            yield from barrier.wait(api)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        for _ in range(2):
            yield from api.sproc(member, PR_SALL, (base, 3))
        barrier = UBarrier(base, 3)
        for _ in range(5):
            yield from barrier.wait(api)
        for _ in range(2):
            yield from api.wait()
        out["ok"] = True
        return 0

    out, _ = run_program(main, ncpus=4)
    assert out["ok"]


# ----------------------------------------------------------------------
# arena


def test_arena_alloc_distinct_blocks():
    def main(api, out):
        arena = yield from Arena.create(api)
        a = yield from arena.alloc(api, 64)
        b = yield from arena.alloc(api, 64)
        yield from api.store_word(a, 1)
        yield from api.store_word(b, 2)
        out["a"] = yield from api.load_word(a)
        out["b"] = yield from api.load_word(b)
        out["distinct"] = a != b
        return 0

    out, _ = run_program(main)
    assert out["distinct"]
    assert out["a"] == 1 and out["b"] == 2


def test_arena_free_reuses_blocks():
    def main(api, out):
        arena = yield from Arena.create(api)
        a = yield from arena.alloc(api, 100)
        yield from arena.free(api, a)
        b = yield from arena.alloc(api, 100)  # same size class
        out["reused"] = a == b
        return 0

    out, _ = run_program(main)
    assert out["reused"]


def test_arena_attach_from_group_member():
    def member(api, ctx):
        arena_base, result_addr = ctx
        arena = yield from Arena.attach(api, arena_base)
        block = yield from arena.alloc(api, 32)
        yield from api.store_word(block, 777)
        yield from api.store_word(result_addr, block)
        return 0

    def main(api, out):
        arena = yield from Arena.create(api)
        result = yield from arena.alloc(api, 16)
        yield from api.store_word(result, 0)
        yield from api.sproc(member, PR_SALL, (arena.base, result))
        yield from api.wait()
        block = yield from api.load_word(result)
        out["value"] = yield from api.load_word(block)
        return 0

    out, _ = run_program(main)
    assert out["value"] == 777


def test_arena_exhaustion_raises():
    def main(api, out):
        arena = yield from Arena.create(api, size=4096)
        try:
            while True:
                yield from arena.alloc(api, 1024)
        except MemoryError:
            out["exhausted"] = True
        return 0

    out, _ = run_program(main)
    assert out["exhausted"]


# ----------------------------------------------------------------------
# work queue


def test_workqueue_fifo_order_single_consumer():
    def main(api, out):
        queue = yield from WorkQueue.create(api, 16)
        for item in (10, 20, 30):
            yield from queue.push(api, item)
        yield from queue.close(api)
        got = []
        while True:
            item = yield from queue.pop(api)
            if item is None:
                break
            got.append(item)
        out["items"] = got
        return 0

    out, _ = run_program(main)
    assert out["items"] == [10, 20, 30]


def test_workqueue_all_items_processed_exactly_once():
    def worker(api, qbase):
        queue = yield from WorkQueue.attach(api, qbase)
        mask = 0
        while True:
            item = yield from queue.pop(api)
            if item is None:
                break
            mask |= 1 << item
            yield from api.compute(item * 37)
        return mask & 0xFF  # partial check via exit code

    def main(api, out):
        queue = yield from WorkQueue.create(api, 64)
        nworkers = 3
        nitems = 24
        done = yield from api.mmap(4096)
        for index in range(nworkers):
            yield from api.sproc(_counting_worker, PR_SALL, (queue.base, done))
        for item in range(nitems):
            yield from queue.push(api, item + 1)
        yield from queue.close(api)
        for _ in range(nworkers):
            yield from api.wait()
        out["sum"] = yield from api.load_word(done)
        out["expected"] = sum(range(1, nitems + 1))
        return 0

    out, _ = run_program(main, ncpus=4)
    assert out["sum"] == out["expected"]


def _counting_worker(api, ctx):
    qbase, done = ctx
    queue = yield from WorkQueue.attach(api, qbase)
    while True:
        item = yield from queue.pop(api)
        if item is None:
            return 0
        yield from api.fetch_add(done, item)


def test_workqueue_capacity_wraparound():
    def main(api, out):
        queue = yield from WorkQueue.create(api, 4)
        got = []
        for round_start in (0, 4, 8):
            for offset in range(4):
                yield from queue.push(api, round_start + offset + 1)
            for _ in range(4):
                got.append((yield from queue.pop(api)))
        out["items"] = got
        return 0

    out, _ = run_program(main)
    assert out["items"] == list(range(1, 13))


# ----------------------------------------------------------------------
# async I/O ring


def test_aio_read_lands_in_caller_buffer():
    def main(api, out):
        fd = yield from api.open("/data", O_RDWR | O_CREAT)
        yield from api.write(fd, b"ABCDEFGH" * 128)
        ring = yield from AioRing.create(api, nworkers=2)
        buf = yield from api.mmap(4096)
        handle = yield from ring.submit_read(api, fd, buf, 16, 8)
        n = yield from ring.wait(api, handle)
        out["n"] = n
        out["data"] = yield from api.load(buf, 16)
        yield from ring.shutdown(api)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["n"] == 16
    assert out["data"] == b"ABCDEFGH" * 2


def test_aio_write_then_verify():
    def main(api, out):
        fd = yield from api.open("/out", O_RDWR | O_CREAT)
        ring = yield from AioRing.create(api, nworkers=1)
        buf = yield from api.mmap(4096)
        yield from api.store(buf, b"written-async")
        handle = yield from ring.submit_write(api, fd, buf, 13, 0)
        n = yield from ring.wait(api, handle)
        yield from ring.shutdown(api)
        yield from api.lseek(fd, 0, 0)
        out["n"] = n
        out["data"] = yield from api.read(fd, 64)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["n"] == 13
    assert out["data"] == b"written-async"


def test_aio_overlaps_compute_with_io():
    """The point of section 4's example: submission is asynchronous, so
    compute proceeds while a worker sleeps on the disk."""

    def main(api, out):
        fd = yield from api.open("/data", O_RDWR | O_CREAT)
        yield from api.write(fd, b"z" * 1024)
        ring = yield from AioRing.create(api, nworkers=1)
        buf = yield from api.mmap(4096)
        start = api.now
        handle = yield from ring.submit_read(api, fd, buf, 1024, 0)
        submitted = api.now - start
        disk = api.kernel.costs.disk_latency
        out["submit_fast"] = submitted < disk
        yield from api.compute(disk * 3)  # overlap
        done_already = yield from ring.poll(api, handle)
        out["overlapped"] = done_already
        before_wait = api.now
        yield from ring.wait(api, handle)
        out["wait_cycles"] = api.now - before_wait
        yield from ring.shutdown(api)
        return 0

    out, _ = run_program(main, ncpus=2)
    disk = 20_000  # default cost model disk_latency
    assert out["submit_fast"], "submit must not block on the disk"
    assert out["overlapped"], "I/O must complete during a 3x-disk compute"
    assert out["wait_cycles"] < disk // 2, "the wait must be nearly free"
