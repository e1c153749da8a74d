"""User-level asynchronous I/O on a share group (paper section 4).

The paper's motivating example: "a user-level asynchronous I/O scheme
could be implemented by sharing the memory and file descriptors.  High
level I/O calls are translated into an equivalent call in a child shared
process, which performs the I/O directly from the original buffer and
then signals the parent."

The ring is a work queue plus a small arena, both in the group's shared
address space.  Workers are ``sproc``'d with ``PR_SADDR | PR_SFDS``: they
see every descriptor the submitter opens — including ones opened *after*
the workers started — and they read or write straight into the
submitter's buffers.  While a worker sleeps on the (simulated) disk, the
submitting process keeps computing: that overlap is what experiment E9
measures.

Control block layout (word offsets from its base): queue base, arena
base, file-position lock word.
"""

from __future__ import annotations

from typing import List

from repro.fs.file import SEEK_SET
from repro.runtime.shmalloc import Arena
from repro.runtime.ulocks import USpinLock
from repro.runtime.workqueue import BlockingWorkQueue, WorkQueue
from repro.share.mask import PR_SADDR, PR_SFDS

#: request opcodes
AIO_READ = 0
AIO_WRITE = 1
#: opcode flag: the submitter sleeps on the status word (uwait), so the
#: worker must uwake it after flagging completion
AIO_NOTIFY = 2

#: request block layout (word offsets)
_STATUS = 0
_RESULT = 4
_OPCODE = 8
_FD = 12
_BUF = 16
_NBYTES = 20
_OFFSET = 24
_REQUEST_WORDS = 8


class AioRing:
    """An asynchronous-I/O context shared by a group."""

    def __init__(self, ctl_base: int, queue: WorkQueue, arena: Arena):
        self.ctl_base = ctl_base
        self.queue = queue
        self.arena = arena
        self.fd_lock = USpinLock(ctl_base + 8)
        self.worker_pids: List[int] = []

    # ------------------------------------------------------------------
    # setup

    @classmethod
    def create(cls, api, nworkers: int = 2, queue_capacity: int = 64,
               blocking: bool = False, arena_bytes: int = 64 * 1024):
        """Generator: build the ring and start its worker pool.

        With ``blocking=True`` the request queue is a
        :class:`BlockingWorkQueue`, so idle workers park in ``uwait``
        instead of spin-yielding — essential for long-running server
        scenarios where rings sit idle between cache misses.
        """
        queue_cls = BlockingWorkQueue if blocking else WorkQueue
        ctl_base = yield from api.mmap(4096)
        queue = yield from queue_cls.create(api, queue_capacity)
        arena = yield from Arena.create(api, arena_bytes)
        yield from api.store_word(ctl_base, queue.base)
        yield from api.store_word(ctl_base + 4, arena.base)
        yield from api.store_word(ctl_base + 8, 0)
        yield from api.store_word(ctl_base + 12, 1 if blocking else 0)
        ring = cls(ctl_base, queue, arena)
        for _ in range(nworkers):
            pid = yield from api.sproc(aio_worker, PR_SADDR | PR_SFDS, ctl_base)
            ring.worker_pids.append(pid)
        return ring

    @classmethod
    def attach(cls, api, ctl_base: int):
        """Generator: bind to a ring created elsewhere in the group."""
        queue_base = yield from api.load_word(ctl_base)
        arena_base = yield from api.load_word(ctl_base + 4)
        blocking = yield from api.load_word(ctl_base + 12)
        queue_cls = BlockingWorkQueue if blocking else WorkQueue
        queue = yield from queue_cls.attach(api, queue_base)
        arena = yield from Arena.attach(api, arena_base)
        return cls(ctl_base, queue, arena)

    # ------------------------------------------------------------------
    # submission

    def prep_requests(self, api, count: int):
        """Generator: preallocate ``count`` reusable request blocks.

        A submitter that recycles its own blocks (resubmit only after
        completion, ``wait_block(..., free=False)``) keeps the arena
        allocator entirely off the per-I/O path.
        """
        blocks = []
        for _ in range(count):
            request = yield from self.arena.alloc_words(api, _REQUEST_WORDS)
            blocks.append(request)
        return blocks

    def _fill(self, api, request: int, opcode: int, fd: int, buf: int,
              nbytes: int, offset: int):
        # status=0, result=0, opcode..offset — one block store
        yield from api.store(
            request,
            b"\x00" * 8 + opcode.to_bytes(4, "little") +
            fd.to_bytes(4, "little") + buf.to_bytes(4, "little") +
            nbytes.to_bytes(4, "little") + offset.to_bytes(4, "little"))

    def _submit(self, api, opcode: int, fd: int, buf: int, nbytes: int, offset: int):
        request = yield from self.arena.alloc_words(api, _REQUEST_WORDS)
        yield from self._fill(api, request, opcode, fd, buf, nbytes, offset)
        yield from self.queue.push(api, request)
        return request

    def submit_read_into(self, api, request: int, fd: int, buf: int,
                         nbytes: int, offset: int):
        """Generator: stage a notify-mode read into a preallocated
        block *without* queueing it — batch with :meth:`kick`."""
        yield from self._fill(
            api, request, AIO_READ | AIO_NOTIFY, fd, buf, nbytes, offset)

    def kick(self, api, requests):
        """Queue a batch of staged requests in one go: returns the
        queue's ``push_many`` generator, to ``yield from``."""
        return self.queue.push_many(api, requests)

    def submit_read(self, api, fd: int, buf: int, nbytes: int, offset: int):
        """Generator: queue a read into guest buffer ``buf``; returns a handle."""
        handle = yield from self._submit(api, AIO_READ, fd, buf, nbytes, offset)
        return handle

    def submit_write(self, api, fd: int, buf: int, nbytes: int, offset: int):
        handle = yield from self._submit(api, AIO_WRITE, fd, buf, nbytes, offset)
        return handle

    def wait(self, api, handle: int):
        """Generator: spin (politely) until the request completes.

        Returns the I/O result count.  Frees the request block.
        """
        polls = 0
        while True:
            status = yield from api.load_word(handle + _STATUS)
            if status:
                break
            polls += 1
            if polls >= 16:
                yield from api.yield_cpu()
                polls = 0
        result = yield from api.load_word(handle + _RESULT)
        yield from self.arena.free(api, handle)
        return result

    def wait_block(self, api, handle: int, free: bool = True):
        """Generator: sleep until a notify-mode submission completes.

        The submitter parks in ``uwait`` on the request's status word;
        the worker stores the completion flag and then wakes the word
        (store-before-wake plus the kernel-side re-check makes the
        sleep race-free).  Returns the I/O result; frees the request
        unless ``free=False`` (preallocated, reusable blocks).
        """
        while True:
            status = yield from api.load_word(handle + _STATUS)
            if status:
                break
            yield from api.uwait(handle + _STATUS, 0)
        result = yield from api.load_word(handle + _RESULT)
        if free:
            yield from self.arena.free(api, handle)
        return result

    def poll(self, api, handle: int):
        """Generator: non-blocking completion check."""
        status = yield from api.load_word(handle + _STATUS)
        return bool(status)

    # ------------------------------------------------------------------
    # teardown

    def shutdown(self, api):
        """Generator: stop the workers and reap them."""
        yield from self.queue.close(api)
        for _ in self.worker_pids:
            yield from api.wait()
        self.worker_pids = []


def aio_worker(api, ctl_base):
    """The worker program: pull requests, do the I/O, flag completion."""
    ring = yield from AioRing.attach(api, ctl_base)
    while True:
        request = yield from ring.queue.pop(api)
        if request is None:
            return 0
        opcode = yield from api.load_word(request + _OPCODE)
        fd = yield from api.load_word(request + _FD)
        buf = yield from api.load_word(request + _BUF)
        nbytes = yield from api.load_word(request + _NBYTES)
        offset = yield from api.load_word(request + _OFFSET)
        if opcode & AIO_NOTIFY:
            # Blocking-mode requests use positional I/O: no shared file
            # offset, so concurrent workers need no serialization and
            # disk latencies genuinely overlap.
            if opcode & AIO_WRITE:
                result = yield from api.pwrite_v(fd, buf, nbytes, offset)
            else:
                result = yield from api.pread_v(fd, buf, nbytes, offset)
        else:
            # Workers share the descriptor (and its offset) with the
            # whole group, so positioning must be serialized.
            yield from ring.fd_lock.acquire(api)
            try:
                yield from api.lseek(fd, offset, SEEK_SET)
                if opcode & AIO_WRITE:
                    result = yield from api.write_v(fd, buf, nbytes)
                else:
                    result = yield from api.read_v(fd, buf, nbytes)
            finally:
                yield from ring.fd_lock.release(api)
        yield from api.store_word(request + _RESULT, result & 0xFFFFFFFF)
        yield from api.store_word(request + _STATUS, 1)
        if opcode & AIO_NOTIFY:
            yield from api.uwake(request + _STATUS, 1)
