"""Deterministic race, deadlock and error-path checking.

The paper's correctness argument (sections 6-7) is all about invariants
that hold *between* the locks: the shared address block's reference
count tracks its member list, every cached TLB translation points at a
frame some live address space still maps, and every open file's
reference count equals the descriptors (plus shaddr copies) that name
it.  This package makes those claims executable:

* :mod:`repro.check.invariants` — the invariant pack itself, callable on
  any quiescent :class:`~repro.system.System`, plus the post-run leak
  audit;
* :mod:`repro.check.explore` — the two searches and what they share:
  one run judge (:func:`run_once`), one result, failure and report
  type.  The schedule explorer re-runs a scenario under N seeded
  scheduler perturbations and demands identical final state every
  time; the fault-injection sweep arms one failpoint at a time and
  audits for leaks.  Each shrinks its failures to a minimal repro;
* :mod:`repro.check.scenarios` — the workloads both searches drive
  (share-group fault storms, descriptor churn, mapping churn, ...),
  each booted by :class:`Scenario`.

``python -m repro.check --seeds 200`` and ``python -m repro.check
inject --deep`` are the CI entry points.
"""

from repro.check.explore import Report, RunResult, explore, run_once, shrink, sweep
from repro.check.invariants import (
    check_fd_refcounts,
    check_pregion_tlb,
    check_shaddr_refcounts,
    run_invariants,
)
from repro.check.scenarios import DEFAULT_SCENARIOS, SCENARIOS, Scenario

__all__ = [
    "DEFAULT_SCENARIOS",
    "Report",
    "RunResult",
    "SCENARIOS",
    "Scenario",
    "check_fd_refcounts",
    "check_pregion_tlb",
    "check_shaddr_refcounts",
    "explore",
    "run_invariants",
    "run_once",
    "shrink",
    "sweep",
]
