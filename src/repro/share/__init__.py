"""Process share groups: the paper's primary contribution.

Public surface: the ``PR_*`` share mask bits, the prctl option codes, and
the shared address block type (mostly for tests and instrumentation —
programs use ``api.sproc`` / ``api.prctl``).
"""

from repro.share.mask import (
    PR_FDS,
    PR_SADDR,
    PR_SALL,
    PR_SDIR,
    PR_SFDS,
    PR_SID,
    PR_SULIMIT,
    PR_SUMASK,
    inherit_mask,
)
from repro.share.prctl import (
    PR_GETGANG,
    PR_GETNSHARE,
    PR_GETSHMASK,
    PR_GETSTACKSIZE,
    PR_MAXPPROCS,
    PR_MAXPROCS,
    PR_SETGANG,
    PR_SETSHMASK,
    PR_SETSTACKSIZE,
    PR_UNSHARE,
)
from repro.share.shaddr import SharedAddressBlock

__all__ = [
    "PR_FDS",
    "PR_GETGANG",
    "PR_GETNSHARE",
    "PR_GETSHMASK",
    "PR_GETSTACKSIZE",
    "PR_MAXPPROCS",
    "PR_MAXPROCS",
    "PR_SADDR",
    "PR_SALL",
    "PR_SDIR",
    "PR_SETGANG",
    "PR_SETSHMASK",
    "PR_SETSTACKSIZE",
    "PR_SFDS",
    "PR_SID",
    "PR_SULIMIT",
    "PR_SUMASK",
    "PR_UNSHARE",
    "SharedAddressBlock",
    "inherit_mask",
]
