"""The user-side system call interface.

Each simulated process holds a :class:`UserAPI` bound to it.  Program
code makes system calls with ``yield from``:

    def main(api, arg):
        fd = yield from api.open("/tmp/data", O_RDONLY)
        data = yield from api.read(fd, 128)
        yield from api.close(fd)
        return 0

Every call runs through the kernel trampoline (entry cost, share-group
sync check, handler, signal delivery, exit cost) and follows the System V
convention: ``-1`` on failure with the error number stored in the PRDA
``errno`` slot (read it with :meth:`UserAPI.errno`).

A syscall stub is a plain function: it builds the handler generator and
hands back the trampoline generator wrapped round it, so the caller's
``yield from`` drives the trampoline with no stub frame in between.
Nothing enters the kernel until that generator is iterated.

Memory operations (:meth:`load`, :meth:`store`, :meth:`cas` ...) are not
system calls — they are user-mode instructions that go through the TLB
and may page-fault.  They hand back the kernel's generator the same way.
Only :meth:`compute`, :meth:`yield_cpu` and :meth:`errno` are generator
functions of their own.
"""

from __future__ import annotations

from repro.fs.file import O_RDONLY, SEEK_SET
from repro.kernel.kernel import ERRNO_OFFSET, Kernel
from repro.mem import layout
from repro.sim.effects import Yield, udelay

#: what ``yield_cpu`` yields: the effect carries no state, so every call
#: shares one instance
_YIELD = Yield()


class UserAPI:
    """Syscall stubs and user-mode instructions for one process."""

    def __init__(self, kernel: Kernel, proc):
        self.kernel = kernel
        self.proc = proc

    def __repr__(self) -> str:  # pragma: no cover
        return "<UserAPI pid=%d>" % self.proc.pid

    # ------------------------------------------------------------------
    # plumbing

    def _call(self, handler):
        """The one doorway into the trampoline: its generator for ``handler``."""
        return self.kernel.syscall(self.proc, handler)

    # ------------------------------------------------------------------
    # user-mode instructions (no kernel entry unless they fault)

    def compute(self, cycles: int):
        """Burn CPU in user mode (preemptible)."""
        yield udelay(cycles)

    def yield_cpu(self):
        """Voluntarily give up the processor."""
        yield _YIELD

    def load(self, vaddr: int, nbytes: int):
        return self.kernel.user_read(self.proc, vaddr, nbytes)

    def store(self, vaddr: int, payload: bytes):
        return self.kernel.user_write(self.proc, vaddr, payload)

    def load_word(self, vaddr: int):
        return self.kernel.user_load_word(self.proc, vaddr)

    def store_word(self, vaddr: int, value: int):
        return self.kernel.user_store_word(self.proc, vaddr, value)

    def cas(self, vaddr: int, expected: int, new: int):
        """Atomic compare-and-swap; returns the observed value."""
        return self.kernel.user_cas(self.proc, vaddr, expected, new)

    def fetch_add(self, vaddr: int, delta: int):
        """Atomic fetch-and-add; returns the previous value."""
        return self.kernel.user_fetch_add(self.proc, vaddr, delta)

    def errno(self):
        """Read errno from the PRDA (a user-mode load, as in the paper)."""
        value = yield from self.load_word(layout.PRDA_BASE + ERRNO_OFFSET)
        return value

    # ------------------------------------------------------------------
    # host-side observability (free: simulation instrumentation)

    @property
    def now(self) -> int:
        """Current simulated time in cycles (instrumentation only)."""
        return self.kernel.engine.now

    @property
    def pid(self) -> int:
        return self.proc.pid

    # ------------------------------------------------------------------
    # process lifecycle

    def fork(self, entry, arg=0):
        return self._call(self.kernel.sys_fork(self.proc, entry, arg))

    def sproc(self, entry, shmask: int, arg=0):
        return self._call(self.kernel.sys_sproc(self.proc, entry, shmask, arg))

    def exec(self, path: str, arg=0, keep_group: bool = False):
        return self._call(self.kernel.sys_exec(self.proc, path, arg, keep_group))

    def exit(self, code: int = 0):
        return self._call(self.kernel.sys_exit(self.proc, code))

    def wait(self):
        return self._call(self.kernel.sys_wait(self.proc))

    def kill(self, pid: int, sig: int):
        return self._call(self.kernel.sys_kill(self.proc, pid, sig))

    def signal(self, sig: int, handler):
        return self._call(self.kernel.sys_signal(self.proc, sig, handler))

    def pause(self):
        return self._call(self.kernel.sys_pause(self.proc))

    def uwait(self, vaddr: int, expected: int):
        """Sleep while the shared word equals ``expected`` (futex-style;
        extension — see kernel/usync.py)."""
        return self._call(self.kernel.sys_uwait(self.proc, vaddr, expected))

    def uwake(self, vaddr: int, count: int = 1):
        """Wake up to ``count`` uwait sleepers on the word."""
        return self._call(self.kernel.sys_uwake(self.proc, vaddr, count))

    def blockproc(self, pid: int):
        """Suspend a process (section 8 extension; IRIX blockproc)."""
        return self._call(self.kernel.sys_blockproc(self.proc, pid))

    def unblockproc(self, pid: int):
        return self._call(self.kernel.sys_unblockproc(self.proc, pid))

    def alarm(self, cycles: int):
        """Arm (or with 0, cancel) a SIGALRM timer, in cycles."""
        return self._call(self.kernel.sys_alarm(self.proc, cycles))

    def getpid(self):
        return self._call(self.kernel.sys_getpid(self.proc))

    def getppid(self):
        return self._call(self.kernel.sys_getppid(self.proc))

    def nice(self, incr: int):
        return self._call(self.kernel.sys_nice(self.proc, incr))

    def prctl(self, option: int, value: int = 0, value2: int = 0):
        return self._call(self.kernel.sys_prctl(self.proc, option, value, value2))

    # ------------------------------------------------------------------
    # address space

    def sbrk(self, incr: int):
        return self._call(self.kernel.sys_sbrk(self.proc, incr))

    def mmap(self, nbytes: int):
        return self._call(self.kernel.sys_mmap(self.proc, nbytes))

    def munmap(self, vaddr: int):
        return self._call(self.kernel.sys_munmap(self.proc, vaddr))

    # ------------------------------------------------------------------
    # files

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o666):
        return self._call(self.kernel.sys_open(self.proc, path, flags, mode))

    def creat(self, path: str, mode: int = 0o666):
        return self._call(self.kernel.sys_creat(self.proc, path, mode))

    def close(self, fd: int):
        return self._call(self.kernel.sys_close(self.proc, fd))

    def read(self, fd: int, nbytes: int):
        """Read into a host buffer; returns bytes (or -1 on error)."""
        return self._call(self.kernel.sys_read(self.proc, fd, nbytes))

    def write(self, fd: int, payload: bytes):
        return self._call(self.kernel.sys_write(self.proc, fd, payload))

    def read_v(self, fd: int, vaddr: int, nbytes: int):
        """POSIX-shaped read into guest memory; returns the byte count."""
        return self._call(self.kernel.sys_read_v(self.proc, fd, vaddr, nbytes))

    def write_v(self, fd: int, vaddr: int, nbytes: int):
        return self._call(self.kernel.sys_write_v(self.proc, fd, vaddr, nbytes))

    def pread_v(self, fd: int, vaddr: int, nbytes: int, offset: int):
        """Positional read into guest memory (fd offset untouched)."""
        return self._call(self.kernel.sys_pread_v(self.proc, fd, vaddr, nbytes, offset))

    def pwrite_v(self, fd: int, vaddr: int, nbytes: int, offset: int):
        """Positional write from guest memory (fd offset untouched)."""
        return self._call(
            self.kernel.sys_pwrite_v(self.proc, fd, vaddr, nbytes, offset)
        )

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET):
        return self._call(self.kernel.sys_lseek(self.proc, fd, offset, whence))

    def dup(self, fd: int):
        return self._call(self.kernel.sys_dup(self.proc, fd))

    def dup2(self, fd: int, newfd: int):
        return self._call(self.kernel.sys_dup2(self.proc, fd, newfd))

    def pipe(self):
        """Returns ``(read_fd, write_fd)`` or -1."""
        return self._call(self.kernel.sys_pipe(self.proc))

    def mkdir(self, path: str, mode: int = 0o777):
        return self._call(self.kernel.sys_mkdir(self.proc, path, mode))

    def link(self, existing: str, newpath: str):
        return self._call(self.kernel.sys_link(self.proc, existing, newpath))

    def ftruncate(self, fd: int, length: int = 0):
        return self._call(self.kernel.sys_ftruncate(self.proc, fd, length))

    def readdir(self, path: str):
        """Directory entry names (a list), or -1."""
        return self._call(self.kernel.sys_readdir(self.proc, path))

    def unlink(self, path: str):
        return self._call(self.kernel.sys_unlink(self.proc, path))

    def stat(self, path: str):
        return self._call(self.kernel.sys_stat(self.proc, path))

    def fstat(self, fd: int):
        return self._call(self.kernel.sys_fstat(self.proc, fd))

    def chdir(self, path: str):
        return self._call(self.kernel.sys_chdir(self.proc, path))

    def chroot(self, path: str):
        return self._call(self.kernel.sys_chroot(self.proc, path))

    def umask(self, mask: int):
        return self._call(self.kernel.sys_umask(self.proc, mask))

    def ulimit(self, cmd: int, value: int = 0):
        return self._call(self.kernel.sys_ulimit(self.proc, cmd, value))

    # ------------------------------------------------------------------
    # identity

    def getuid(self):
        return self._call(self.kernel.sys_getuid(self.proc))

    def getgid(self):
        return self._call(self.kernel.sys_getgid(self.proc))

    def setuid(self, uid: int):
        return self._call(self.kernel.sys_setuid(self.proc, uid))

    def setgid(self, gid: int):
        return self._call(self.kernel.sys_setgid(self.proc, gid))

    # ------------------------------------------------------------------
    # System V IPC

    def shmget(self, key: int, nbytes: int, flags: int = 0):
        return self._call(self.kernel.sys_shmget(self.proc, key, nbytes, flags))

    def shmat(self, shmid: int):
        return self._call(self.kernel.sys_shmat(self.proc, shmid))

    def shmdt(self, vaddr: int):
        return self._call(self.kernel.sys_shmdt(self.proc, vaddr))

    def shm_rmid(self, shmid: int):
        """IPC_RMID: destroy the segment once all attaches are gone."""
        return self._call(self.kernel.sys_shmctl_rmid(self.proc, shmid))

    def semget(self, key: int, nsems: int, flags: int = 0):
        return self._call(self.kernel.sys_semget(self.proc, key, nsems, flags))

    def semop(self, semid: int, ops):
        return self._call(self.kernel.sys_semop(self.proc, semid, ops))

    # ------------------------------------------------------------------
    # sockets

    def socket(self):
        return self._call(self.kernel.sys_socket(self.proc))

    def socketpair(self):
        return self._call(self.kernel.sys_socketpair(self.proc))

    def bind(self, fd: int, name: str):
        return self._call(self.kernel.sys_bind(self.proc, fd, name))

    def listen(self, fd: int, backlog: int = 5):
        return self._call(self.kernel.sys_listen(self.proc, fd, backlog))

    def connect(self, fd: int, name: str):
        return self._call(self.kernel.sys_connect(self.proc, fd, name))

    def accept(self, fd: int):
        return self._call(self.kernel.sys_accept(self.proc, fd))

    def send(self, fd: int, payload: bytes):
        return self._call(self.kernel.sys_send(self.proc, fd, payload))

    def recv(self, fd: int, nbytes: int):
        return self._call(self.kernel.sys_recv(self.proc, fd, nbytes))

    def sendfd(self, fd: int, passed_fd: int):
        """Pass a descriptor over a socket (the BSD-style baseline)."""
        return self._call(self.kernel.sys_sendfd(self.proc, fd, passed_fd))

    def recvfd(self, fd: int):
        return self._call(self.kernel.sys_recvfd(self.proc, fd))

    # ------------------------------------------------------------------
    # Mach-style threads (the comparison baseline)

    def thread_create(self, entry, arg=0):
        return self._call(self.kernel.sys_thread_create(self.proc, entry, arg))

    def thread_join(self):
        return self._call(self.kernel.sys_thread_join(self.proc))
