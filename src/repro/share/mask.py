"""Share mask bits for ``sproc()`` (paper section 5.1).

Each bit names a resource the new process will share with its share
group.  The child's mask is ANDed with the parent's at creation time —
*strict inheritance*: a process can never cause a child to share a
resource that it does not itself share.  The original process of a group
implicitly shares everything (``PR_SALL``).
"""

from __future__ import annotations

from repro.kernel.flags import (
    SDIRSYNC,
    SFDSYNC,
    SIDSYNC,
    SULIMITSYNC,
    SUMASKSYNC,
)

#: share the virtual address space
PR_SADDR = 0x0001
#: share ulimit values
PR_SULIMIT = 0x0002
#: share umask values
PR_SUMASK = 0x0004
#: share current/root directory
PR_SDIR = 0x0008
#: share open file descriptors (the paper spells this PR_FDS)
PR_SFDS = 0x0010
#: share effective uid/gid
PR_SID = 0x0020
#: all of the above and any future resources
PR_SALL = 0xFFFF

#: the paper's spelling
PR_FDS = PR_SFDS

#: EXTENSION (paper section 8): with PR_SADDR, give the child a private
#: copy-on-write DATA segment while sharing the rest of the image —
#: "share part of the VM image and have copy-on-write access to other
#: parts".  A modifier, deliberately outside the PR_SALL range so that
#: "share everything" does not imply it.
PR_PRIVDATA = 0x0001_0000

#: mask bits that correspond to non-VM resources, with their p_flag sync bit
NONVM_SYNC_BITS = {
    PR_SULIMIT: SULIMITSYNC,
    PR_SUMASK: SUMASKSYNC,
    PR_SDIR: SDIRSYNC,
    PR_SFDS: SFDSYNC,
    PR_SID: SIDSYNC,
}

#: every currently defined individual resource bit
KNOWN_BITS = PR_SADDR | PR_SULIMIT | PR_SUMASK | PR_SDIR | PR_SFDS | PR_SID


def inherit_mask(parent_mask: int, requested: int) -> int:
    """Strict inheritance: the child shares at most what the parent does."""
    return parent_mask & requested
