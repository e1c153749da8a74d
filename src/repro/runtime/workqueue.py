"""Self-scheduling work queues (paper section 3).

"The scheduling model used in such applications is *self-scheduling*, in
which an independent task waits for work to be queued, and competes for
that work with other tasks."  A pool of ``sproc``'d processes is created
once, before the parallel section, and each member pulls work items off a
queue in shared memory — so there is no per-task creation cost at all,
which is the paper's answer to "threads create 10x faster than fork".

Queue layout (word offsets from base):

====== ==================================
0      lock word
4      head index (next item to take)
8      tail index (next free slot)
12     closed flag
16     capacity (items)
20+    item slots (one word each)
====== ==================================
"""

from __future__ import annotations

from repro.runtime.ulocks import USpinLock

_HEADER_WORDS = 5


class WorkQueue:
    """A bounded FIFO of word-sized work items in shared memory."""

    def __init__(self, base: int, capacity: int):
        self.base = base
        self.capacity = capacity
        self.lock = USpinLock(base)

    # ------------------------------------------------------------------

    @classmethod
    def create(cls, api, capacity: int = 1024):
        """Generator: map and initialize a queue."""
        nbytes = (_HEADER_WORDS + capacity) * 4
        base = yield from api.mmap(nbytes)
        queue = cls(base, capacity)
        yield from api.store(base, b"\x00" * (_HEADER_WORDS * 4))
        yield from api.store_word(base + 16, capacity)
        return queue

    @classmethod
    def attach(cls, api, base: int):
        """Generator: bind to a queue created by another member."""
        capacity = yield from api.load_word(base + 16)
        return cls(base, capacity)

    def _slot(self, index: int) -> int:
        return self.base + (_HEADER_WORDS + index % self.capacity) * 4

    # ------------------------------------------------------------------

    def push(self, api, item: int):
        """Generator: append an item; spins while the queue is full."""
        while True:
            yield from self.lock.acquire(api)
            head = yield from api.load_word(self.base + 4)
            tail = yield from api.load_word(self.base + 8)
            if tail - head < self.capacity:
                yield from api.store_word(self._slot(tail), item)
                yield from api.store_word(self.base + 8, tail + 1)
                yield from self.lock.release(api)
                return
            yield from self.lock.release(api)
            yield from api.yield_cpu()

    def push_many(self, api, items):
        """Generator: append several items (spinning variant: one by
        one; the blocking subclass batches under a single lock hold)."""
        for item in items:
            yield from self.push(api, item)

    def pop(self, api):
        """Generator: take the next item, or None once closed and empty."""
        while True:
            yield from self.lock.acquire(api)
            head = yield from api.load_word(self.base + 4)
            tail = yield from api.load_word(self.base + 8)
            if head < tail:
                item = yield from api.load_word(self._slot(head))
                yield from api.store_word(self.base + 4, head + 1)
                yield from self.lock.release(api)
                return item
            closed = yield from api.load_word(self.base + 12)
            yield from self.lock.release(api)
            if closed:
                return None
            yield from api.yield_cpu()

    def close(self, api):
        """Generator: mark the queue finished; poppers drain then stop."""
        yield from api.store_word(self.base + 12, 1)


class BlockingWorkQueue(WorkQueue):
    """A :class:`WorkQueue` whose poppers and pushers *sleep* when stuck.

    The base class spin-yields, which is the right call for short bursts
    but generates an unbounded event stream from idle workers in
    long-running server scenarios.  This variant parks on ``uwait``
    (kernel/usync.py) instead, using two sequence words appended after
    the item slots (the base header/slot layout is untouched):

    * ``not-empty seq`` — bumped by every push and by close; poppers
      that found the queue empty sleep on it.
    * ``not-full seq`` — bumped by every pop and by close; pushers that
      found the queue full sleep on it.
    * two ``waiters`` words — how many sleepers each sequence word has.
      A waker only issues the ``uwake`` syscall when its waiters word is
      non-zero, so the common uncontended push/pop costs no kernel entry
      (the futex trick).  Sleepers bump the count under the lock before
      releasing it and drop it after waking, so a waker that sees zero
      is guaranteed there is no one between lock-release and sleep: the
      kernel-side ``uwait`` re-check covers exactly that window.

    All four words are only written under the queue lock and read under
    it before sleeping, and ``uwait`` re-checks the word under the
    kernel usync lock — so a transition between the unlocked window and
    the sleep is never lost.  ``close`` bumps both sequence words (a
    closed queue is a state change neither index reflects) and
    broadcasts unconditionally.  Only usable within one share group
    (usync channels are keyed by address space).
    """

    def _ne_seq(self) -> int:
        return self.base + (_HEADER_WORDS + self.capacity) * 4

    def _nf_seq(self) -> int:
        return self.base + (_HEADER_WORDS + self.capacity + 1) * 4

    def _ne_waiters(self) -> int:
        return self.base + (_HEADER_WORDS + self.capacity + 2) * 4

    def _nf_waiters(self) -> int:
        return self.base + (_HEADER_WORDS + self.capacity + 3) * 4

    @classmethod
    def create(cls, api, capacity: int = 1024):
        """Generator: map and initialize a queue (+4 sleep words)."""
        nbytes = (_HEADER_WORDS + capacity + 4) * 4
        base = yield from api.mmap(nbytes)
        queue = cls(base, capacity)
        yield from api.store(base, b"\x00" * (_HEADER_WORDS * 4))
        yield from api.store_word(base + 16, capacity)
        yield from api.store(queue._ne_seq(), b"\x00" * 16)
        return queue

    def _sleep(self, api, seq_addr: int, seq: int, waiters_addr: int):
        """Generator: park on ``seq_addr`` (caller holds the lock and
        read ``seq`` under it); registers in the waiters word."""
        count = yield from api.load_word(waiters_addr)
        yield from api.store_word(waiters_addr, count + 1)
        yield from self.lock.release(api)
        yield from api.uwait(seq_addr, seq)
        yield from self.lock.acquire(api)
        count = yield from api.load_word(waiters_addr)
        yield from api.store_word(waiters_addr, count - 1)
        yield from self.lock.release(api)

    def push(self, api, item: int):
        """Generator: append an item; sleeps while the queue is full."""
        yield from self.push_many(api, [item])

    def push_many(self, api, items):
        """Generator: append items under one lock hold (waking poppers
        once) — sleeps whenever the queue fills mid-way."""
        sent = 0
        while sent < len(items):
            yield from self.lock.acquire(api)
            head = yield from api.load_word(self.base + 4)
            tail = yield from api.load_word(self.base + 8)
            room = self.capacity - (tail - head)
            if room > 0:
                take = min(room, len(items) - sent)
                for offset in range(take):
                    yield from api.store_word(
                        self._slot(tail + offset), items[sent + offset])
                yield from api.store_word(self.base + 8, tail + take)
                ne = yield from api.load_word(self._ne_seq())
                yield from api.store_word(self._ne_seq(), (ne + 1) & 0x7FFFFFFF)
                sleepers = yield from api.load_word(self._ne_waiters())
                yield from self.lock.release(api)
                if sleepers:
                    yield from api.uwake(self._ne_seq(), take)
                sent += take
            else:
                nf = yield from api.load_word(self._nf_seq())
                yield from self._sleep(
                    api, self._nf_seq(), nf, self._nf_waiters())

    def pop(self, api):
        """Generator: take the next item; sleeps while empty, None once
        closed and drained."""
        while True:
            yield from self.lock.acquire(api)
            head = yield from api.load_word(self.base + 4)
            tail = yield from api.load_word(self.base + 8)
            if head < tail:
                item = yield from api.load_word(self._slot(head))
                yield from api.store_word(self.base + 4, head + 1)
                nf = yield from api.load_word(self._nf_seq())
                yield from api.store_word(self._nf_seq(), (nf + 1) & 0x7FFFFFFF)
                sleepers = yield from api.load_word(self._nf_waiters())
                yield from self.lock.release(api)
                if sleepers:
                    yield from api.uwake(self._nf_seq(), 1)
                return item
            closed = yield from api.load_word(self.base + 12)
            if closed:
                yield from self.lock.release(api)
                return None
            ne = yield from api.load_word(self._ne_seq())
            yield from self._sleep(api, self._ne_seq(), ne, self._ne_waiters())

    def close(self, api):
        """Generator: mark finished and wake every sleeper to drain."""
        yield from self.lock.acquire(api)
        yield from api.store_word(self.base + 12, 1)
        ne = yield from api.load_word(self._ne_seq())
        yield from api.store_word(self._ne_seq(), (ne + 1) & 0x7FFFFFFF)
        nf = yield from api.load_word(self._nf_seq())
        yield from api.store_word(self._nf_seq(), (nf + 1) & 0x7FFFFFFF)
        yield from self.lock.release(api)
        yield from api.uwake(self._ne_seq(), 1 << 30)
        yield from api.uwake(self._nf_seq(), 1 << 30)


def run_pool(api, nworkers: int, worker_entry, queue: "WorkQueue", shmask: int):
    """Generator: preallocate a pool of sproc'd workers on ``queue``.

    Returns the list of pids.  ``worker_entry(api, queue_base)`` is the
    child program; it should attach with :meth:`WorkQueue.attach` and
    loop on :meth:`WorkQueue.pop` until it returns None.
    """
    pids = []
    for _ in range(nworkers):
        pid = yield from api.sproc(worker_entry, shmask, queue.base)
        pids.append(pid)
    return pids
