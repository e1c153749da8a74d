"""Kernel-assisted blocking on user words: ``uwait``/``uwake``.

EXTENSION beyond the 1988 paper, but the historically next step it set
up: the paper's section 3 argues busy-waiting is the fast path, and its
section 8 worries about what happens when spinners outnumber processors
(hence the gang hint).  IRIX's later *usync* facility — and eventually
Linux's futex — resolved the tension the other way: spin briefly, then
ask the kernel to sleep until another process pokes the same word.

``uwait(vaddr, expected)`` sleeps only if the word still holds
``expected`` (checked under the kernel's hash-chain lock, so a wake
between the user-mode check and the call is never lost);
``uwake(vaddr, count)`` wakes up to ``count`` sleepers.  Queues are
keyed by ``(asid, vaddr)`` — sharing the address space is what makes two
processes' waits meet, which is pleasingly share-group-shaped.  As with
futex, the word must be aligned (so it lies in one page), and a wake
count must not be negative: either is EINVAL before anything is touched.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import EINTR, EINVAL, SysError
from repro.kernel.fault import WORD
from repro.mem.frames import PAGE_MASK
from repro.sim.effects import kdelay
from repro.sync.semaphore import WaitQueue


class UsyncSyscalls:
    """Kernel mixin: the uwait/uwake pair."""

    def init_usync(self) -> None:
        self._usync: Dict[Tuple[int, int], WaitQueue] = {}

    def _usync_channel(self, asid: int, vaddr: int) -> WaitQueue:
        key = (asid, vaddr)
        channel = self._usync.get(key)
        if channel is None:
            channel = WaitQueue(self.machine, self.sched, "uwait@%#x" % vaddr)
            self._usync[key] = channel
        return channel

    def sys_uwait(self, proc, vaddr: int, expected: int):
        """Sleep while the user word equals ``expected``.

        Returns 1 if it slept and was woken, 0 if the word had already
        changed (no sleep).  EINTR on signal, as any interruptible sleep;
        EINVAL for a misaligned word.
        """
        if vaddr & 3:
            raise SysError(EINVAL, "uwait on misaligned word %#x" % vaddr)
        frame = self.vm_hit(proc, vaddr, False)
        if frame is None:
            frame = yield from self.vm_handle(proc, vaddr, write=False, user=False)
        value = WORD.unpack_from(frame.data, vaddr & PAGE_MASK)[0]
        if value != expected:
            yield kdelay(self.costs.flag_batch_test)
            return 0
        channel = self._usync_channel(proc.vm.asid, vaddr)
        if self.fail("usync.sleep"):
            raise SysError(EINTR, "injected: signal before uwait sleep")
        self.stats["uwaits"] += 1
        self.pcount(proc, "uwaits")
        self.trace("uwait", proc.pid, "@%#x" % vaddr)
        if not (yield from channel.sleep(proc)):
            raise SysError(EINTR)
        return 1

    def sys_uwake(self, proc, vaddr: int, count: int = 1):
        """Wake up to ``count`` sleepers on the word; returns the number
        of wakeups banked (``v()`` keeps one for a racing sleeper).
        EINVAL for a misaligned word or a negative count."""
        if vaddr & 3:
            raise SysError(EINVAL, "uwake on misaligned word %#x" % vaddr)
        if count < 0:
            raise SysError(EINVAL, "uwake with negative count %d" % count)
        yield kdelay(self.costs.wakeup)
        channel = self._usync.get((proc.vm.asid, vaddr))
        if channel is None:
            return 0
        woken = channel.wake(count)
        self.stats["uwakes"] += woken
        if woken:
            self.pcount(proc, "uwakes", woken)
            self.trace("uwake", proc.pid, "@%#x woke=%d" % (vaddr, woken))
        return woken
