"""UNIX error numbers and the kernel-internal error exception.

The simulated kernel follows classic System V conventions: a failing
system call returns ``-1`` to the user program and deposits an error
number in the per-process ``errno`` slot.  Because the data segment of a
share group is shared, ``errno`` cannot live in shared data; the paper
(section 5.1) places it in the PRDA, and so do we:
:meth:`repro.kernel.syscalls.UserAPI.errno` loads it from there.

Kernel handlers signal failure by raising :class:`SysError`; the syscall
trampoline in :mod:`repro.kernel.kernel` converts the exception into the
``-1``/``errno`` convention before returning to user mode.
"""

from __future__ import annotations


# Classic System V errno values (numbering follows AT&T UNIX).
EPERM = 1  # Operation not permitted
ENOENT = 2  # No such file or directory
ESRCH = 3  # No such process
EINTR = 4  # Interrupted system call
EIO = 5  # I/O error
ENXIO = 6  # No such device or address
E2BIG = 7  # Argument list too long
ENOEXEC = 8  # Exec format error
EBADF = 9  # Bad file descriptor
ECHILD = 10  # No child processes
EAGAIN = 11  # Resource temporarily unavailable
ENOMEM = 12  # Out of memory
EACCES = 13  # Permission denied
EFAULT = 14  # Bad address
ENOTBLK = 15  # Block device required
EBUSY = 16  # Device or resource busy
EEXIST = 17  # File exists
EXDEV = 18  # Cross-device link
ENODEV = 19  # No such device
ENOTDIR = 20  # Not a directory
EISDIR = 21  # Is a directory
EINVAL = 22  # Invalid argument
ENFILE = 23  # File table overflow
EMFILE = 24  # Too many open files
ENOTTY = 25  # Not a typewriter
ETXTBSY = 26  # Text file busy
EFBIG = 27  # File too large
ENOSPC = 28  # No space left on device
ESPIPE = 29  # Illegal seek
EROFS = 30  # Read-only file system
EMLINK = 31  # Too many links
EPIPE = 32  # Broken pipe
EDOM = 33  # Math argument out of domain
ERANGE = 34  # Math result not representable
EDEADLK = 45  # Deadlock would occur
ENAMETOOLONG = 78  # Path name too long
ENOTEMPTY = 93  # Directory not empty
EWOULDBLOCK = EAGAIN
ENOTSOCK = 95  # Socket operation on non-socket
EADDRINUSE = 98  # Address already in use
ECONNREFUSED = 111  # Connection refused
ENOTCONN = 134  # Socket not connected
EIDRM = 36  # Identifier removed (SysV IPC)

_NAMES = {
    value: name
    for name, value in list(globals().items())
    if name.startswith("E") and isinstance(value, int)
}


def errno_name(err: int) -> str:
    """Return the symbolic name for an errno value (``"E??"`` if unknown)."""
    return _NAMES.get(err, "E??(%d)" % err)


class SysError(Exception):
    """Raised by kernel handlers to abort a system call with an errno.

    The syscall trampoline catches this, stores ``errno`` into the calling
    process's PRDA, and returns ``-1`` to the user program.
    """

    def __init__(self, errno: int, message: str = ""):
        self.errno = errno
        super().__init__(message or errno_name(errno))


class SimulationError(RuntimeError):
    """A host-level error in the simulation itself (a bug, not a guest error)."""


class DeadlockError(SimulationError):
    """The event queue drained while runnable work still existed."""
