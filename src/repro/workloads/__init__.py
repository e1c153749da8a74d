"""Workloads: deterministic generators, the five programming models,
and the flagship multi-tier server (E17).

The package re-exports the generators and the server; the models
(``repro.workloads.models``) are imported from their own module.
"""

from repro.workloads.generators import (
    checksum,
    lcg,
    pack_words,
    payload,
    task_costs,
    unpack_words,
    words,
)
from repro.workloads.server import (
    ArrivalSchedule,
    ServerConfig,
    ShardedCache,
    run_server,
)

__all__ = [
    "ArrivalSchedule",
    "ServerConfig",
    "ShardedCache",
    "checksum",
    "lcg",
    "pack_words",
    "payload",
    "run_server",
    "task_costs",
    "unpack_words",
    "words",
]
