"""Open file table entries.

One :class:`File` exists per ``open()``; descriptors in possibly many
processes point at it (``dup``, ``fork``, descriptor passing, and the
share group's ``s_ofile`` copy all add references).  The shared offset is
what makes descriptor sharing in a share group behave like the paper's
asynchronous-I/O example: a child's ``read`` advances the offset the
parent sees.
"""

from __future__ import annotations

from repro.errors import EBADF, ESPIPE, SimulationError, SysError
from repro.fs.inode import Inode, InodeType

#: open flags
O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_ACCMODE = 0x3
O_APPEND = 0x8
O_CREAT = 0x100
O_TRUNC = 0x200
O_EXCL = 0x400
O_NDELAY = 0x800

#: lseek whence
SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class File:
    """An entry in the system open-file table."""

    def __init__(self, inode: Inode, flags: int):
        self.inode = inode.hold()
        self.flags = flags
        self.offset = 0
        self.refcount = 1
        self.socket = None  #: attached Socket for socket descriptors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<File ino=%d off=%d ref=%d>" % (
            self.inode.ino, self.offset, self.refcount,
        )

    # ------------------------------------------------------------------

    def hold(self) -> "File":
        if self.refcount <= 0:
            raise SimulationError("hold on closed file")
        self.refcount += 1
        return self

    def release(self) -> bool:
        """Drop one reference; returns True when the file actually closed.

        The last close drops the inode hold, then closes this file's
        ends of a pipe (its readers see EOF, its writers EPIPE) or tears
        its socket down.
        """
        if self.refcount <= 0:
            raise SimulationError("file refcount underflow")
        self.refcount -= 1
        if self.refcount:
            return False
        inode = self.inode
        inode.release()
        if inode.itype is InodeType.FIFO and inode.fifo is not None:
            if self.readable:
                inode.fifo.close_read_end()
            if self.writable:
                inode.fifo.close_write_end()
        if self.socket is not None:
            self.socket.on_last_close()
        return True

    # ------------------------------------------------------------------

    @property
    def readable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_WRONLY, O_RDWR)

    def require_readable(self) -> None:
        if not self.readable:
            raise SysError(EBADF)

    def require_writable(self) -> None:
        if not self.writable:
            raise SysError(EBADF)

    def seek(self, offset: int, whence: int) -> int:
        if self.inode.itype is InodeType.FIFO or self.socket is not None:
            raise SysError(ESPIPE)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self.offset + offset
        elif whence == SEEK_END:
            new = self.inode.size + offset
        else:
            from repro.errors import EINVAL

            raise SysError(EINVAL)
        if new < 0:
            from repro.errors import EINVAL

            raise SysError(EINVAL)
        self.offset = new
        return new
