"""System V shared memory segments.

The paper's Figure 2 world: processes explicitly create and attach
segments by key.  Segments are plain :class:`~repro.mem.region.Region`
objects of type ``SHM``, so attachment, faulting and teardown reuse the
whole VM substrate.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import EEXIST, EIDRM, EINVAL, ENOENT, SysError
from repro.mem.frames import PAGE_MASK, PAGE_SHIFT
from repro.mem.region import Region, RegionType

IPC_CREAT = 0o1000
IPC_EXCL = 0o2000
IPC_PRIVATE = 0


class ShmSegment:
    """One key-addressed segment."""

    def __init__(self, shmid: int, key: int, region: Region, nbytes: int):
        self.shmid = shmid
        self.key = key
        self.region = region.hold()  #: the registry's own reference
        self.nbytes = nbytes
        self.removed = False

    def __repr__(self) -> str:  # pragma: no cover
        return "<ShmSegment id=%d key=%d %dB>" % (self.shmid, self.key, self.nbytes)


class ShmRegistry:
    """The kernel's table of shared memory segments."""

    def __init__(self, allocator):
        self.allocator = allocator
        self._by_id: Dict[int, ShmSegment] = {}
        self._by_key: Dict[int, ShmSegment] = {}
        self._next_id = 0

    def get(self, key: int, nbytes: int, flags: int) -> ShmSegment:
        if key != IPC_PRIVATE and key in self._by_key:
            segment = self._by_key[key]
            if flags & IPC_CREAT and flags & IPC_EXCL:
                raise SysError(EEXIST)
            if nbytes and nbytes > segment.nbytes:
                raise SysError(EINVAL, "segment smaller than requested")
            return segment
        if not flags & IPC_CREAT and key != IPC_PRIVATE:
            raise SysError(ENOENT)
        if nbytes <= 0:
            raise SysError(EINVAL)
        npages = (nbytes + PAGE_MASK) >> PAGE_SHIFT
        region = Region(self.allocator, npages, RegionType.SHM)
        self._next_id += 1
        segment = ShmSegment(self._next_id, key, region, nbytes)
        self._by_id[segment.shmid] = segment
        if key != IPC_PRIVATE:
            self._by_key[key] = segment
        return segment

    def lookup(self, shmid: int) -> ShmSegment:
        segment = self._by_id.get(shmid)
        if segment is None or segment.removed:
            raise SysError(EIDRM if segment is not None else EINVAL)
        return segment

    def remove(self, shmid: int) -> None:
        """IPC_RMID: the segment disappears once every attach is gone."""
        segment = self._by_id.get(shmid)
        if segment is None:
            raise SysError(EINVAL)
        if not segment.removed:
            segment.removed = True
            self._by_key.pop(segment.key, None)
            segment.region.release()  # drop the registry's reference

    def __len__(self) -> int:
        return len(self._by_id)
