"""Observability: kstat counters, lock-contention profiling, /proc text.

The instrumentation substrate every performance experiment measures
against.  Four layers, all host-side and all free of simulated cycles:

* :mod:`repro.obs.kstat` — named counters/gauges/histograms registered
  per-kernel, per-CPU, per-process, and per-share-group (the Solaris
  ``kstat`` idea);
* :mod:`repro.obs.lockstat` — acquisition/contention/hold accounting
  for every named kernel lock, with a top-N contended report;
* :mod:`repro.obs.lockdep` — lock-order/deadlock checking over the same
  primitives (off by default; ``System(lockdep=True)``);
* :mod:`repro.obs.procfs` — ``/proc``-style text tables rendered from a
  live :class:`~repro.system.System` (``System.report()``), imported
  from its own module only when a report is asked for.

Host speed — how fast the simulator itself runs, and where its host time
goes by layer — is measured outside the package, by ``perfbench/``.

Counters never charge cycles, so enabling or disabling them cannot move
a benchmark headline number — `tests/test_obs.py` holds this and the
determinism of collected values as invariants.
"""

from repro.obs.kstat import Histogram, KstatRegistry
from repro.obs.lockdep import NULL_LOCKDEP, LockDep, LockOrderViolation, lock_class
from repro.obs.lockstat import LockStat, LockStatRegistry

__all__ = [
    "Histogram",
    "KstatRegistry",
    "LockDep",
    "LockOrderViolation",
    "LockStat",
    "LockStatRegistry",
    "NULL_LOCKDEP",
    "lock_class",
]
