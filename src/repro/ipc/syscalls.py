"""System call layer for SysV IPC and sockets (kernel mixin)."""

from __future__ import annotations

from typing import Optional

from repro.errors import EINTR, EINVAL, ENOSPC, ENOTCONN, ENOTSOCK, SysError
from repro.fs.file import File, O_RDWR
from repro.fs.inode import Inode, InodeType
from repro.ipc.socket import Socket, SocketNamespace
from repro.ipc.sysv_sem import SemRegistry
from repro.ipc.sysv_shm import ShmRegistry
from repro.kernel.fault import _words
from repro.share import vmshare
from repro.sim.effects import kdelay


class IPCSyscalls:
    """Kernel mixin: shmget/shmat, semop, sockets."""

    def init_ipc(self) -> None:
        self.shm = ShmRegistry(self.machine.frames)
        self.sem = SemRegistry(self.machine, self.sched)
        self.socket_names = SocketNamespace()

    # ------------------------------------------------------------------
    # shared memory

    def sys_shmget(self, proc, key: int, nbytes: int, flags: int = 0):
        yield kdelay(self.costs.file_io_base)
        if self.fail("ipc.get"):
            raise SysError(ENOSPC, "injected: ipc table full")
        segment = self.shm.get(key, nbytes, flags)
        return segment.shmid

    def sys_shmat(self, proc, shmid: int):
        """Attach; returns the chosen virtual address."""
        segment = self.shm.lookup(shmid)
        base = yield from vmshare.attach_mapping(
            self, proc, segment.nbytes, segment.region
        )
        return base

    def sys_shmdt(self, proc, vaddr: int):
        yield from vmshare.detach_mapping(self, proc, vaddr)
        return 0

    def sys_shmctl_rmid(self, proc, shmid: int):
        yield kdelay(self.costs.file_io_base)
        self.shm.remove(shmid)
        return 0

    # ------------------------------------------------------------------
    # semaphores

    def sys_semget(self, proc, key: int, nsems: int, flags: int = 0):
        yield kdelay(self.costs.file_io_base)
        if self.fail("ipc.get"):
            raise SysError(ENOSPC, "injected: ipc table full")
        semset = self.sem.get(key, nsems, flags)
        return semset.semid

    def sys_semop(self, proc, semid: int, ops):
        """Apply an operation array atomically, sleeping as needed."""
        semset = self.sem.lookup(semid)
        ops = [(int(index), int(delta)) for index, delta in ops]
        yield kdelay(self.costs.sema_op)
        while True:
            if semset.can_apply(ops):
                semset.apply(ops)
                semset.change.wake()  # every sleeper retries its array
                self.pcount(proc, "semops")
                self.trace("ipc", proc.pid, "semop id=%d" % semid)
                return 0
            if self.fail("sem.sleep"):
                raise SysError(EINTR, "injected: signal before semop sleep")
            if not (yield from semset.change.sleep(proc)):
                raise SysError(EINTR)

    # ------------------------------------------------------------------
    # sockets

    def _socket_file(self, socket: Optional[Socket] = None) -> File:
        """An open file for ``socket``, or for a fresh one."""
        file = File(Inode(InodeType.CHR, mode=0o666), O_RDWR)
        file.socket = socket or Socket(self.machine, self.sched)
        return file

    def _get_socket(self, proc, fd: int) -> Socket:
        file = proc.uarea.fdtable.get(fd)
        if file.socket is None:
            raise SysError(ENOTSOCK)
        return file.socket

    def sys_socket(self, proc):
        yield kdelay(self.costs.socket_op)

        def apply():
            return proc.uarea.fdtable.alloc(self._socket_file())

        fd = yield from self._fd_update(proc, apply)
        return fd

    def sys_socketpair(self, proc):
        """Two already-connected sockets; returns ``(fd_a, fd_b)``."""
        yield kdelay(self.costs.socket_op)

        def apply():
            file_a = self._socket_file()
            file_b = self._socket_file()
            file_a.socket.pair(file_b.socket)
            table = proc.uarea.fdtable
            fd_a = table.alloc(file_a)
            try:
                fd_b = table.alloc(file_b)
            except SysError:
                table.remove(fd_a).release()
                raise
            return fd_a, fd_b

        fds = yield from self._fd_update(proc, apply)
        return fds

    def sys_bind(self, proc, fd: int, name: str):
        yield kdelay(self.costs.socket_op)
        socket = self._get_socket(proc, fd)
        self.socket_names.bind(name, socket)
        return 0

    def sys_listen(self, proc, fd: int, backlog: int = 5):
        yield kdelay(self.costs.socket_op)
        socket = self._get_socket(proc, fd)
        socket.listening = True
        socket.backlog_max = max(1, backlog)
        return 0

    def sys_connect(self, proc, fd: int, name: str):
        yield kdelay(self.costs.socket_op)
        socket = self._get_socket(proc, fd)
        server = self.socket_names.lookup(name)
        socket.connect_to(server)
        return 0

    def sys_accept(self, proc, fd: int):
        """Returns a new descriptor for the accepted connection."""
        yield kdelay(self.costs.socket_op)
        listener = self._get_socket(proc, fd)
        endpoint = yield from listener.accept_one(proc)

        def apply():
            file = self._socket_file(endpoint)
            try:
                return proc.uarea.fdtable.alloc(file)
            except SysError:
                file.release()  # the peer sees the connection close
                raise

        newfd = yield from self._fd_update(proc, apply)
        return newfd

    def sys_send(self, proc, fd: int, payload: bytes):
        """Also the path of ``write`` on a socket."""
        socket = self._get_socket(proc, fd)
        yield kdelay(self.costs.socket_op)
        yield kdelay(self.costs.copyio_per_word * _words(len(payload)))
        if socket.tx is None:
            raise SysError(ENOTCONN)
        count = yield from self.pipe_write(proc, socket.tx, payload)
        return count

    def sys_recv(self, proc, fd: int, nbytes: int):
        """Also the path of ``read`` on a socket; an unconnected socket
        reads EOF."""
        if nbytes < 0:
            raise SysError(EINVAL)
        socket = self._get_socket(proc, fd)
        yield kdelay(self.costs.socket_op)
        data = b""
        if socket.rx is not None:
            data = yield from socket.rx.read(proc, nbytes)
        yield kdelay(self.costs.copyio_per_word * _words(len(data)))
        return data

    def sys_sendfd(self, proc, fd: int, passed_fd: int):
        """Pass an open descriptor to the peer (4.2BSD-style); a peer
        that has closed fails ``EPIPE``, SIGPIPE included, as ``send``
        does."""
        socket = self._get_socket(proc, fd)
        if socket.peer is None:
            raise SysError(ENOTCONN)
        yield kdelay(self.costs.socket_op)
        file = proc.uarea.fdtable.get(passed_fd)
        if socket.peer.closed:
            raise self.broken_pipe(proc)
        socket.peer.push_fd(file.hold())
        return 0

    def sys_recvfd(self, proc, fd: int):
        """Receive a passed descriptor; returns the new fd."""
        socket = self._get_socket(proc, fd)
        yield kdelay(self.costs.socket_op)
        file = yield from socket.pop_fd(proc)

        def apply():
            return proc.uarea.fdtable.alloc(file)

        newfd = yield from self._fd_update(proc, apply)
        return newfd

