"""User-level synchronization on shared memory.

The paper (section 3): "The best performance is obtained using some form
of busy-waiting for synchronization ... With hardware support for
busy-waiting, synchronization speeds can approach memory access speeds."
These primitives are exactly that — a test-and-test-and-set spinlock
and a barrier built on the simulated CAS/fetch-add instructions,
operating on words in a share group's common address space.  No kernel
entry happens on any fast path.
"""

from __future__ import annotations


class USpinLock:
    """A test-and-test-and-set spinlock on one shared word.

    ``spins_before_yield`` bounds the busy wait: after that many polls
    the waiter voluntarily yields the CPU, which keeps oversubscribed
    workloads (more spinners than processors) from convoying — the
    pathology experiment E12's gang scheduling addresses.
    """

    def __init__(self, vaddr: int, spins_before_yield: int = 64, name=None):
        self.vaddr = vaddr
        self.spins_before_yield = spins_before_yield
        self.name = name if name is not None else "uspin@%#x" % vaddr

    def acquire(self, api):
        """Generator: spin until the lock is ours."""
        lockdep = api.kernel.machine.lockdep
        lockdep.attempt(self, api.proc, "uspin")
        while True:
            observed = yield from api.cas(self.vaddr, 0, 1)
            if observed == 0:
                lockdep.acquired(self, api.proc, "uspin")
                return
            polls = 0
            while True:
                value = yield from api.load_word(self.vaddr)
                if value == 0:
                    break
                polls += 1
                if polls >= self.spins_before_yield:
                    yield from api.yield_cpu()
                    polls = 0

    def try_acquire(self, api):
        """Generator: one attempt; returns True on success."""
        observed = yield from api.cas(self.vaddr, 0, 1)
        if observed == 0:
            lockdep = api.kernel.machine.lockdep
            lockdep.attempt(self, api.proc, "uspin")
            lockdep.acquired(self, api.proc, "uspin")
            return True
        return False

    def release(self, api):
        """Free the lock (a single store): returns the store's generator,
        to ``yield from``."""
        api.kernel.machine.lockdep.released(self, api.proc)
        return api.store_word(self.vaddr, 0)


class UBarrier:
    """A sense-reversing barrier over two shared words.

    Word 0: arrival count.  Word 1: generation.  All participants must
    agree on ``nprocs``.
    """

    def __init__(self, vaddr: int, nprocs: int):
        self.count_addr = vaddr
        self.gen_addr = vaddr + 4
        self.nprocs = nprocs

    def wait(self, api):
        """Generator: block (spinning) until all participants arrive."""
        generation = yield from api.load_word(self.gen_addr)
        arrived = yield from api.fetch_add(self.count_addr, 1)
        if arrived + 1 == self.nprocs:
            yield from api.store_word(self.count_addr, 0)
            yield from api.fetch_add(self.gen_addr, 1)
            return
        polls = 0
        while True:
            now = yield from api.load_word(self.gen_addr)
            if now != generation:
                return
            polls += 1
            if polls >= 64:
                yield from api.yield_cpu()
                polls = 0
