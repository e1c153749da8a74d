"""PRDA conventions: the per-process data area (paper section 5.1).

The PRDA is one private page at a fixed virtual address in every process.
The layout used by this library (our "C library" convention):

====== ======================================================
offset contents
====== ======================================================
0      ``errno`` (written by the kernel's syscall trampoline)
4      per-process scratch word (library use)
64+    application area (``PRDA_USER``), free for programs
====== ======================================================
"""

from __future__ import annotations

from repro.mem.layout import PRDA_BASE, PRDA_SIZE

#: where errno lives (matches repro.kernel.kernel.ERRNO_OFFSET)
PRDA_ERRNO = PRDA_BASE
#: a scratch word reserved for the runtime library
PRDA_SCRATCH = PRDA_BASE + 4
#: start of the application-owned part of the PRDA
PRDA_USER = PRDA_BASE + 64
#: bytes available to the application
PRDA_USER_SIZE = PRDA_SIZE - 64
