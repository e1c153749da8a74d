"""Share mask bits for ``sproc()`` (paper section 5.1).

Each bit names a resource the new process will share with its share
group.  The child's mask is ANDed with the parent's at creation time —
*strict inheritance*: a process can never cause a child to share a
resource that it does not itself share.  The original process of a group
implicitly shares everything (``PR_SALL``).
"""

from __future__ import annotations

from repro.errors import EINVAL, SysError

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


def validate_mask(mask: int) -> None:
    """Refuse a share mask with a bit outside ``PR_SALL`` (EINVAL).

    ``sproc``, ``PR_UNSHARE`` and ``PR_SETSHMASK`` all check here, so a
    ``p_shmask`` only ever holds resource bits.
    """
    if mask & ~PR_SALL:
        raise SysError(EINVAL, "share mask %#x has bits outside PR_SALL" % mask)


def inherit_mask(parent_mask: int, requested: int) -> int:
    """Strict inheritance: the child shares at most what the parent does."""
    return parent_mask & requested
