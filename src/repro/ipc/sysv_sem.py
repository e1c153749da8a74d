"""System V semaphores.

The paper's critique of this mechanism — "synchronization mechanisms
which require kernel interaction, which negates the impact of improved
IPC mechanisms" — is exactly what experiment E6 measures: every ``semop``
pays the syscall trampoline and usually a sleep/wakeup, where a
busy-waiting user lock pays a handful of memory cycles.

``semop`` implements the classic all-or-nothing semantics: the operation
array applies atomically, and the caller sleeps until it can.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import EEXIST, EINVAL, ENOENT, SysError
from repro.sync.semaphore import WaitQueue

from repro.ipc.sysv_shm import IPC_CREAT, IPC_EXCL, IPC_PRIVATE

#: semaphores per set (SysV's SEMMSL): a larger ``nsems`` fails EINVAL
SEMMSL = 25


class SemSet:
    """One semaphore set."""

    def __init__(self, semid: int, key: int, nsems: int, machine, waker):
        self.semid = semid
        self.key = key
        self.values: List[int] = [0] * nsems
        #: sleepers retry after any change (classic sem_undo-free model)
        self.change = WaitQueue(machine, waker, "semset%d" % semid)

    def can_apply(self, ops: Sequence[Tuple[int, int]]) -> bool:
        for index, delta in ops:
            if not 0 <= index < len(self.values):
                raise SysError(EINVAL, "bad semaphore index %d" % index)
            if delta < 0 and self.values[index] + delta < 0:
                return False
        return True

    def apply(self, ops: Sequence[Tuple[int, int]]) -> None:
        for index, delta in ops:
            self.values[index] += delta


class SemRegistry:
    def __init__(self, machine, waker):
        self.machine = machine
        self.waker = waker
        self._by_id: Dict[int, SemSet] = {}
        self._by_key: Dict[int, SemSet] = {}
        self._next_id = 0

    def get(self, key: int, nsems: int, flags: int) -> SemSet:
        if key != IPC_PRIVATE and key in self._by_key:
            if flags & IPC_CREAT and flags & IPC_EXCL:
                raise SysError(EEXIST)
            return self._by_key[key]
        if not flags & IPC_CREAT and key != IPC_PRIVATE:
            raise SysError(ENOENT)
        if not 0 < nsems <= SEMMSL:
            raise SysError(EINVAL)
        self._next_id += 1
        semset = SemSet(self._next_id, key, nsems, self.machine, self.waker)
        self._by_id[semset.semid] = semset
        if key != IPC_PRIVATE:
            self._by_key[key] = semset
        return semset

    def lookup(self, semid: int) -> SemSet:
        semset = self._by_id.get(semid)
        if semset is None:
            raise SysError(EINVAL)
        return semset
