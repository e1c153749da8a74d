"""Process flag bits (the paper's ``p_flag`` word).

When a share group member modifies a shared non-VM resource it sets one
of these bits in every *other* member's ``p_flag``.  At kernel entry the
collection of bits is checked *in a single test*; only when some bit is
set does the (slower) resynchronization routine run.  The paper credits
this batching with lowering system call overhead for most calls — the
claim experiment E11 reproduces.
"""

from __future__ import annotations

#: re-sync open file descriptors from s_ofile
SFDSYNC = 0x0001
#: re-sync current/root directory from s_cdir/s_rdir
SDIRSYNC = 0x0002
#: re-sync effective uid/gid from s_uid/s_gid
SIDSYNC = 0x0004
#: re-sync file creation mask from s_cmask
SUMASKSYNC = 0x0008
#: re-sync ulimit from s_limit
SULIMITSYNC = 0x0010

#: every resource-sync bit (the single batched test mask)
ALL_SYNC = SFDSYNC | SDIRSYNC | SIDSYNC | SUMASKSYNC | SULIMITSYNC
