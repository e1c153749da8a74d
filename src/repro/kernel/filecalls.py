"""File, directory and identity system calls.

Every mutation of a shared non-VM resource goes through the section 6.3
protocol from :mod:`repro.share.resources`: descriptor-table changes are
single-threaded through ``s_fupdsema``, the miscellaneous resources
(directories, ids, umask, ulimit) through ``s_rupdlock``; in both cases
the other sharing members get their ``p_flag`` sync bits set and pick up
the change at their next kernel entry.
"""

from __future__ import annotations

from repro.errors import (
    EEXIST,
    EFBIG,
    EINVAL,
    ENFILE,
    ENOENT,
    EPERM,
    EPIPE,
    SysError,
)
from repro.fs.file import (
    File,
    O_ACCMODE,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)
from repro.fs.inode import IEXEC, IREAD, IWRITE, Inode, InodeType
from repro.fs.pipe import BrokenPipe, Pipe
from repro.kernel.fault import _words
from repro.kernel.signals import SIGPIPE
from repro.share import resources
from repro.share.mask import PR_SFDS
from repro.sim.effects import kdelay


class FileSyscalls:
    """Kernel mixin: open/close/read/write and friends."""

    # ------------------------------------------------------------------
    # sharing-protocol helpers

    def _fd_update(self, proc, apply_fn):
        """Run a descriptor-table mutation under the sharing protocol."""
        if proc.shares(PR_SFDS):
            result = yield from resources.update_files(self, proc, apply_fn)
            return result
        return apply_fn()

    def _misc_update(self, proc, resource, apply_fn):
        """Run a misc-resource change under the sharing protocol.

        ``apply_fn()`` changes the caller's u-area and returns the call's
        result; for a sharing caller the protocol publishes the change.
        """
        if proc.shares(resource.bit):
            result = yield from resources.update_misc(self, proc, resource, apply_fn)
            return result
        return apply_fn()

    # ------------------------------------------------------------------
    # opening and closing

    def _namei(self, proc, path: str) -> Inode:
        ua = proc.uarea
        return self.fs.namei(path, ua.cdir, ua.rdir, ua.cred())

    def sys_open(self, proc, path: str, flags: int, mode: int = 0o666):
        """Open (optionally creating) ``path``; returns the descriptor."""
        yield kdelay(self.costs.file_io_base)

        def apply():
            if self.fail("open.file"):
                raise SysError(ENFILE, "injected: file table full")
            ua = proc.uarea
            cred = ua.cred()
            try:
                inode = self._namei(proc, path)
                if flags & O_CREAT and flags & O_EXCL:
                    raise SysError(EEXIST, path)
            except SysError as err:
                if err.errno != ENOENT or not flags & O_CREAT:
                    raise
                parent, name = self.fs.namei_parent(path, ua.cdir, ua.rdir, cred)
                inode = self.fs.create(
                    parent, name, InodeType.REG, mode & ~ua.cmask, cred
                )
            accmode = flags & O_ACCMODE
            if accmode in (O_RDONLY, O_RDWR):
                inode.access(cred.uid, cred.gid, IREAD)
            if accmode in (O_WRONLY, O_RDWR):
                inode.require_not_dir()
                inode.access(cred.uid, cred.gid, IWRITE)
                if flags & O_TRUNC:
                    inode.truncate()
            file = File(inode, flags)
            try:
                fd = proc.uarea.fdtable.alloc(file)
            except SysError:
                # Drop the new file's only reference, and with it the
                # inode hold; without it an EMFILE open leaks the inode.
                file.release()
                raise
            self.stats["opens"] += 1
            return fd

        fd = yield from self._fd_update(proc, apply)
        return fd

    def sys_creat(self, proc, path: str, mode: int = 0o666):
        fd = yield from self.sys_open(proc, path, O_WRONLY | O_CREAT | O_TRUNC, mode)
        return fd

    def sys_close(self, proc, fd: int):
        yield kdelay(self.costs.file_io_base)

        def apply():
            proc.uarea.fdtable.remove(fd).release()
            return 0

        result = yield from self._fd_update(proc, apply)
        return result

    def sys_dup(self, proc, fd: int):
        yield kdelay(self.costs.file_io_base)

        def apply():
            return proc.uarea.fdtable.dup(fd)

        newfd = yield from self._fd_update(proc, apply)
        return newfd

    def sys_dup2(self, proc, fd: int, newfd: int):
        yield kdelay(self.costs.file_io_base)

        def apply():
            return proc.uarea.fdtable.dup2(fd, newfd)

        result = yield from self._fd_update(proc, apply)
        return result

    def sys_pipe(self, proc):
        """Create a pipe; returns ``(read_fd, write_fd)``."""
        yield kdelay(self.costs.file_io_base + self.costs.pipe_op)

        def apply():
            if self.fail("pipe.alloc"):
                raise SysError(ENFILE, "injected: no pipe buffer")
            inode = Inode(InodeType.FIFO, mode=0o600)
            inode.fifo = Pipe(self.machine, self.sched)
            reader = File(inode, O_RDONLY)
            writer = File(inode, O_WRONLY)
            table = proc.uarea.fdtable
            rfd = table.alloc(reader)
            try:
                wfd = table.alloc(writer)
            except SysError:
                table.remove(rfd).release()
                raise
            self.stats["pipes"] += 1
            return rfd, wfd

        fds = yield from self._fd_update(proc, apply)
        return fds

    # ------------------------------------------------------------------
    # data movement

    def _disk_sleep(self, proc):
        """Block the caller for the device latency (CPU stays free)."""
        from repro.sync.semaphore import Semaphore

        done = Semaphore(self.machine, self.sched, 0, "disk")
        self.engine.schedule(self.costs.disk_latency, done.v)
        yield from done.p(proc)

    def sys_read(self, proc, fd: int, nbytes: int):
        """Read up to ``nbytes``; returns host bytes (see also read_v)."""
        if nbytes < 0:
            raise SysError(EINVAL)
        file = proc.uarea.fdtable.get(fd)
        file.require_readable()
        if file.socket is not None:
            data = yield from self.sys_recv(proc, fd, nbytes)
            return data
        yield kdelay(self.costs.file_io_base)
        inode = file.inode
        if inode.itype is InodeType.FIFO:
            yield kdelay(self.costs.pipe_op)
            data = yield from inode.fifo.read(proc, nbytes)
            yield kdelay(self.costs.copyio_per_word * _words(len(data)))
            return data
        if inode.itype is InodeType.CHR:
            data = inode.device.read(nbytes)
            return data
        yield from self._disk_sleep(proc)
        data = inode.read_at(file.offset, nbytes)
        file.offset += len(data)
        yield kdelay(self.costs.copyio_per_word * _words(len(data)))
        self.stats["bytes_read"] += len(data)
        self.pcount(proc, "bytes_read", len(data))
        self.trace("io", proc.pid, "read fd=%d n=%d" % (fd, len(data)))
        return data

    def sys_write(self, proc, fd: int, payload: bytes):
        """Write host bytes; returns the count written."""
        file = proc.uarea.fdtable.get(fd)
        file.require_writable()
        if file.socket is not None:
            count = yield from self.sys_send(proc, fd, payload)
            return count
        yield kdelay(self.costs.file_io_base)
        inode = file.inode
        if inode.itype is InodeType.FIFO:
            yield kdelay(self.costs.pipe_op)
            yield kdelay(self.costs.copyio_per_word * _words(len(payload)))
            count = yield from self.pipe_write(proc, inode.fifo, payload)
            return count
        if inode.itype is InodeType.CHR:
            return inode.device.write(payload)
        if file.flags & O_APPEND:
            file.offset = inode.size
        if file.offset + len(payload) > proc.uarea.ulimit:
            raise SysError(EFBIG, "ulimit exceeded")
        yield from self._disk_sleep(proc)
        yield kdelay(self.costs.copyio_per_word * _words(len(payload)))
        count = inode.write_at(file.offset, payload)
        file.offset += count
        self.stats["bytes_written"] += count
        self.pcount(proc, "bytes_written", count)
        self.trace("io", proc.pid, "write fd=%d n=%d" % (fd, count))
        return count

    def pipe_write(self, proc, pipe: Pipe, payload: bytes):
        """Write to a pipe or a socket's; a pipe with no reader left
        posts SIGPIPE and fails ``EPIPE``."""
        try:
            count = yield from pipe.write(proc, payload)
        except BrokenPipe:
            raise self.broken_pipe(proc)
        return count

    def broken_pipe(self, proc) -> SysError:
        """Post SIGPIPE to ``proc`` and return the ``EPIPE`` to raise:
        what a write or a ``sendfd`` with no reader left fails with."""
        self.psignal(proc, SIGPIPE)
        return SysError(EPIPE)

    def sys_read_v(self, proc, fd: int, vaddr: int, nbytes: int):
        """POSIX-shaped read into a *guest* buffer; returns the count."""
        data = yield from self.sys_read(proc, fd, nbytes)
        if data:
            yield from self.copyout(proc, vaddr, data)
        return len(data)

    def sys_write_v(self, proc, fd: int, vaddr: int, nbytes: int):
        """POSIX-shaped write from a *guest* buffer; returns the count."""
        if nbytes < 0:
            raise SysError(EINVAL)
        payload = yield from self.copyin(proc, vaddr, nbytes)
        count = yield from self.sys_write(proc, fd, payload)
        return count

    def sys_pread_v(self, proc, fd: int, vaddr: int, nbytes: int, offset: int):
        """Positional read into a guest buffer; the fd offset is untouched.

        The share-group variant of ``read_v``: ``PR_SFDS`` members share
        one file-table entry (and so one offset), forcing worker pools
        to serialize ``lseek``+``read`` under a user lock.  Carrying the
        offset in the call removes the shared state entirely — regular
        files only (pipes, sockets and devices have no positions).
        """
        if nbytes < 0 or offset < 0:
            raise SysError(EINVAL)
        file = proc.uarea.fdtable.get(fd)
        file.require_readable()
        yield kdelay(self.costs.file_io_base)
        inode = file.inode
        if file.socket is not None or inode.itype is not InodeType.REG:
            from repro.errors import ESPIPE

            raise SysError(ESPIPE, "pread needs a regular file")
        yield from self._disk_sleep(proc)
        data = inode.read_at(offset, nbytes)
        yield kdelay(self.costs.copyio_per_word * _words(len(data)))
        self.stats["bytes_read"] += len(data)
        self.pcount(proc, "bytes_read", len(data))
        self.trace("io", proc.pid, "pread fd=%d n=%d" % (fd, len(data)))
        if data:
            yield from self.copyout(proc, vaddr, data)
        return len(data)

    def sys_pwrite_v(self, proc, fd: int, vaddr: int, nbytes: int, offset: int):
        """Positional write from a guest buffer; the fd offset is untouched."""
        if nbytes < 0 or offset < 0:
            raise SysError(EINVAL)
        file = proc.uarea.fdtable.get(fd)
        file.require_writable()
        yield kdelay(self.costs.file_io_base)
        inode = file.inode
        if file.socket is not None or inode.itype is not InodeType.REG:
            from repro.errors import ESPIPE

            raise SysError(ESPIPE, "pwrite needs a regular file")
        if offset + nbytes > proc.uarea.ulimit:
            raise SysError(EFBIG, "ulimit exceeded")
        payload = yield from self.copyin(proc, vaddr, nbytes)
        yield from self._disk_sleep(proc)
        yield kdelay(self.costs.copyio_per_word * _words(len(payload)))
        count = inode.write_at(offset, payload)
        self.stats["bytes_written"] += count
        self.pcount(proc, "bytes_written", count)
        self.trace("io", proc.pid, "pwrite fd=%d n=%d" % (fd, count))
        return count

    def sys_lseek(self, proc, fd: int, offset: int, whence: int):
        yield kdelay(self.costs.file_io_base)
        file = proc.uarea.fdtable.get(fd)
        return file.seek(offset, whence)

    # ------------------------------------------------------------------
    # namespace

    def sys_mkdir(self, proc, path: str, mode: int = 0o777):
        yield kdelay(self.costs.file_io_base)
        ua = proc.uarea
        parent, name = self.fs.namei_parent(path, ua.cdir, ua.rdir, ua.cred())
        self.fs.create(parent, name, InodeType.DIR, mode & ~ua.cmask, ua.cred())
        return 0

    def sys_unlink(self, proc, path: str):
        yield kdelay(self.costs.file_io_base)
        ua = proc.uarea
        parent, name = self.fs.namei_parent(path, ua.cdir, ua.rdir, ua.cred())
        self.fs.unlink(parent, name, ua.cred())
        return 0

    def sys_link(self, proc, existing: str, newpath: str):
        """Create a hard link (directories excluded, classic rule)."""
        yield kdelay(self.costs.file_io_base)
        ua = proc.uarea
        node = self._namei(proc, existing)
        node.require_not_dir()
        parent, name = self.fs.namei_parent(newpath, ua.cdir, ua.rdir, ua.cred())
        if parent.dir_lookup(name) is not None:
            raise SysError(EEXIST, name)
        from repro.fs.inode import IWRITE

        parent.access(ua.uid, ua.gid, IWRITE)
        parent.dir_add(name, node)
        return 0

    def sys_ftruncate(self, proc, fd: int, length: int = 0):
        """Cut a regular file to ``length`` bytes."""
        yield kdelay(self.costs.file_io_base)
        file = proc.uarea.fdtable.get(fd)
        file.require_writable()
        file.inode.require_not_dir()
        if length < 0:
            raise SysError(EINVAL)
        del file.inode.data[length:]
        return 0

    def sys_readdir(self, proc, path: str):
        """Return the sorted entry names of a directory."""
        yield kdelay(self.costs.file_io_base)
        inode = self._namei(proc, path)
        inode.require_dir()
        from repro.fs.inode import IREAD

        inode.access(proc.uarea.uid, proc.uarea.gid, IREAD)
        return sorted(inode.entries)

    def sys_stat(self, proc, path: str):
        """Returns a small stat record (dict) for examples and tests."""
        yield kdelay(self.costs.file_io_base)
        inode = self._namei(proc, path)
        return _stat_record(inode)

    def sys_fstat(self, proc, fd: int):
        yield kdelay(self.costs.file_io_base)
        file = proc.uarea.fdtable.get(fd)
        return _stat_record(file.inode)

    # ------------------------------------------------------------------
    # directories, umask, ulimit, identity (shared resources)

    def sys_chdir(self, proc, path: str):
        yield kdelay(self.costs.file_io_base)
        inode = self._namei(proc, path)
        inode.require_dir()
        inode.access(proc.uarea.uid, proc.uarea.gid, IEXEC)

        def apply():
            proc.uarea.set_cdir(inode)
            return 0

        result = yield from self._misc_update(proc, resources.DIR, apply)
        return result

    def sys_chroot(self, proc, path: str):
        yield kdelay(self.costs.file_io_base)
        if proc.uarea.uid != 0:
            raise SysError(EPERM)
        inode = self._namei(proc, path)
        inode.require_dir()

        def apply():
            proc.uarea.set_rdir(inode)
            return 0

        result = yield from self._misc_update(proc, resources.DIR, apply)
        return result

    def sys_umask(self, proc, new_mask: int):
        yield kdelay(self.costs.flag_batch_test)

        def apply():
            old = proc.uarea.cmask
            proc.uarea.cmask = new_mask & 0o777
            return old

        old = yield from self._misc_update(proc, resources.UMASK, apply)
        return old

    def sys_ulimit(self, proc, cmd: int, value: int = 0):
        """cmd 1: get file size limit; cmd 2: set it (raise needs root)."""
        yield kdelay(self.costs.flag_batch_test)
        if cmd == 1:
            return proc.uarea.ulimit
        if cmd != 2:
            raise SysError(EINVAL)
        if value > proc.uarea.ulimit and proc.uarea.uid != 0:
            raise SysError(EPERM, "only root may raise ulimit")

        def apply():
            proc.uarea.ulimit = value
            return value

        result = yield from self._misc_update(proc, resources.ULIMIT, apply)
        return result

    def sys_getuid(self, proc):
        yield kdelay(self.costs.flag_batch_test)
        return proc.uarea.uid

    def sys_getgid(self, proc):
        yield kdelay(self.costs.flag_batch_test)
        return proc.uarea.gid

    def sys_setuid(self, proc, uid: int):
        yield kdelay(self.costs.flag_batch_test)
        if proc.uarea.uid != 0 and uid != proc.uarea.uid:
            raise SysError(EPERM)

        def apply():
            proc.uarea.uid = uid
            return 0

        result = yield from self._misc_update(proc, resources.ID, apply)
        return result

    def sys_setgid(self, proc, gid: int):
        yield kdelay(self.costs.flag_batch_test)
        if proc.uarea.uid != 0 and gid != proc.uarea.gid:
            raise SysError(EPERM)

        def apply():
            proc.uarea.gid = gid
            return 0

        result = yield from self._misc_update(proc, resources.ID, apply)
        return result


def _stat_record(inode: Inode) -> dict:
    return {
        "ino": inode.ino,
        "type": inode.itype.value,
        "mode": inode.mode,
        "uid": inode.uid,
        "gid": inode.gid,
        "nlink": inode.nlink,
        "size": inode.size,
    }
