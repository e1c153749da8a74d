"""Virtual address space layout.

The layout follows the MIPS user-space conventions of the era: text low,
a fixed one-page PRDA below it, the data segment in the middle, a mapping
arena for SysV shared memory and anonymous maps, and stacks carved
downward from just under the 2 GB user/kernel boundary.

The PRDA (process data area, paper section 5.1) sits at the *same* fixed
virtual address in every process and is never shared, so code in a shared
text/data image can always reach per-process state (``errno`` being the
canonical example).
"""

from __future__ import annotations

from repro.mem.frames import PAGE_SIZE

#: one-page private per-process data area, fixed address in every process
PRDA_BASE = 0x0020_0000
PRDA_SIZE = PAGE_SIZE

#: program text
TEXT_BASE = 0x0040_0000

#: data segment (initialized data + heap grown by sbrk)
DATA_BASE = 0x1000_0000

#: arena for SysV shared memory segments and anonymous mmaps
MAP_BASE = 0x3000_0000
MAP_LIMIT = 0x5000_0000

#: stacks are carved downward from here
STACK_TOP = 0x7FFF_0000

#: default per-stack reservation (changeable via prctl PR_SETSTACKSIZE)
DEFAULT_STACK_MAX = 1024 * 1024

#: initial resident size of a fresh stack
INITIAL_STACK_PAGES = 4

#: guard gap left between consecutive stack reservations
STACK_GAP = PAGE_SIZE

#: highest user address (the 2 GB kuseg boundary on MIPS)
USER_LIMIT = 0x8000_0000

