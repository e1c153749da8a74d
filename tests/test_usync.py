"""uwait/uwake (futex-style extension) and the hybrid lock."""


from repro import PR_SALL, status_code
from repro.errors import EINTR, EINVAL
from repro.runtime import HybridLock
from tests.conftest import run_program


def test_uwait_sleeps_until_uwake():
    def waiter(api, base):
        rc = yield from api.uwait(base, 0)  # word is 0: sleep
        value = yield from api.load_word(base)
        return 10 + rc if value == 7 else 99

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(waiter, PR_SALL, base)
        yield from api.compute(50_000)
        yield from api.store_word(base, 7)
        woken = yield from api.uwake(base, 1)
        out["woken"] = woken
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["woken"] == 1
    assert out["code"] == 11, "uwait must return 1 after a real sleep"
    assert sim.stats["uwaits"] == 1


def test_uwait_returns_immediately_on_changed_word():
    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 5)
        rc = yield from api.uwait(base, 0)  # word is 5, not 0
        out["rc"] = rc
        return 0

    out, sim = run_program(main)
    assert out["rc"] == 0
    assert sim.stats["uwaits"] == 0


def test_uwake_with_no_sleepers_is_zero():
    def main(api, out):
        base = yield from api.mmap(4096)
        out["woken"] = yield from api.uwake(base, 4)
        return 0

    out, _ = run_program(main)
    assert out["woken"] == 0


def test_uwake_wakes_requested_count():
    def waiter(api, base):
        yield from api.uwait(base, 0)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        for _ in range(3):
            yield from api.sproc(waiter, PR_SALL, base)
        yield from api.compute(60_000)  # all three asleep
        yield from api.store_word(base, 1)
        first = yield from api.uwake(base, 2)
        second = yield from api.uwake(base, 5)
        out["counts"] = (first, second)
        for _ in range(3):
            yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["counts"] == (2, 1)


def test_uwait_interrupted_by_signal():
    from repro import SIGUSR1

    def waiter(api, base):
        def handler(api, sig):
            return
            yield

        yield from api.signal(SIGUSR1, handler)
        rc = yield from api.uwait(base, 0)
        err = yield from api.errno()
        return 0 if (rc == -1 and err == EINTR) else 1

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(waiter, PR_SALL, base)
        yield from api.compute(40_000)
        yield from api.kill(pid, SIGUSR1)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["code"] == 0


def test_no_lost_wakeup_race():
    """uwake landing between the waiter's user-mode check and its uwait
    must not be lost (the value re-check inside the kernel)."""

    def waiter(api, base):
        # no user-mode pre-check at all: rely on the kernel's
        value = yield from api.uwait(base, 0)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        pid = yield from api.sproc(waiter, PR_SALL, base)
        # immediately flip and wake — the waiter may not even be asleep yet
        yield from api.store_word(base, 1)
        yield from api.uwake(base, 1)
        _, status = yield from api.wait()
        out["done"] = True
        return 0

    out, _ = run_program(main, ncpus=1)  # 1 CPU maximizes the race window
    assert out["done"]


def test_hybrid_lock_mutual_exclusion_oversubscribed():
    def member(api, base):
        lock = HybridLock(base, spins=4)
        for _ in range(25):
            yield from lock.acquire(api)
            value = yield from api.load_word(base + 8)
            yield from api.compute(3_000)  # long hold: preemption likely
            yield from api.store_word(base + 8, value + 1)
            yield from lock.release(api)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        nmembers = 6
        for _ in range(nmembers):
            yield from api.sproc(member, PR_SALL, base)
        for _ in range(nmembers):
            yield from api.wait()
        out["count"] = yield from api.load_word(base + 8)
        out["expected"] = nmembers * 25
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["count"] == out["expected"]
    assert sim.stats["uwaits"] > 0, "the blocking path must actually run"


def test_waits_keyed_per_address():
    """Waiters on different words are independent."""

    def waiter(api, addr):
        yield from api.uwait(addr, 0)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.sproc(waiter, PR_SALL, base)
        yield from api.sproc(waiter, PR_SALL, base + 64)
        yield from api.compute(50_000)
        woken_wrong = yield from api.uwake(base + 128, 5)
        yield from api.store_word(base, 1)
        woken_a = yield from api.uwake(base, 5)
        yield from api.store_word(base + 64, 1)
        woken_b = yield from api.uwake(base + 64, 5)
        out["counts"] = (woken_wrong, woken_a, woken_b)
        yield from api.wait()
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["counts"] == (0, 1, 1)


def _einval_wait(offset, payload, expected):
    """uwait on ``base + offset`` after storing ``payload`` there."""

    def main(api, out):
        base = yield from api.mmap(2 * 4096)
        yield from api.store(base + offset, payload)
        out["rc"] = yield from api.uwait(base + offset, expected)
        out["errno"] = yield from api.errno()
        return 0

    out, sim = run_program(main)
    assert (out["rc"], out["errno"]) == (-1, EINVAL)
    assert sim.stats["uwaits"] == 0


def test_uwait_on_a_page_straddling_word_is_einval():
    # the word at base + 4094 is 0x66554433; its first page holds 0x4433
    _einval_wait(4094, b"\x33\x44\x55\x66", 0x4433)


def test_uwait_on_a_misaligned_word_in_one_page_is_einval():
    _einval_wait(2, (0x1234).to_bytes(4, "little"), 0x1234)


def test_uwake_with_a_negative_count_is_einval():
    def waiter(api, base):
        rc = yield from api.uwait(base, 0)
        return 0 if rc == 1 else 1

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.sproc(waiter, PR_SALL, base)
        yield from api.compute(50_000)  # the waiter is asleep
        kernel = api.kernel
        channel = kernel._usync[(api.proc.vm.asid, base)]
        out["rc"] = yield from api.uwake(base, -1)
        out["errno"] = yield from api.errno()
        out["after"] = (channel.waiters, kernel.stats["uwakes"])
        yield from api.store_word(base, 1)
        out["woken"] = yield from api.uwake(base, 1)
        _, status = yield from api.wait()
        out["code"] = status_code(status)
        return 0

    out, _ = run_program(main, ncpus=2)
    assert (out["rc"], out["errno"]) == (-1, EINVAL)
    assert out["after"] == (1, 0), "a refused wake must touch nothing"
    assert out["woken"] == 1
    assert out["code"] == 0
