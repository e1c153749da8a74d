"""The two searches: the schedule explorer and the fault-injection sweep.

One deterministic run proves nothing about a protocol: the bug lives in
the interleaving the default schedule never produces, or in the error
path no run takes.  Both searches re-run a scenario
(:mod:`repro.check.scenarios`) many times, each time varying one thing,
and :func:`run_once` judges every run the same way:

* the run completes — no deadlock, no lost wakeup, no lockdep violation;
* the invariant pack (:mod:`repro.check.invariants`) finds nothing, and
  neither does the leak audit (no leaked frames, no unbalanced share
  groups, no stranded waiters);
* given a baseline, the final-state fingerprint (the guest's ``out``
  dict, live frame count, share-group create/free balance) is identical
  to the baseline's.  Cycle counts are *excluded* — wall-clock
  legitimately depends on the schedule.

**The explorer** (:func:`explore`) varies the schedule.  It runs each
scenario unperturbed, then under N *seeded* scheduler perturbations
(randomized wakeup order, enqueue placement, idle-CPU choice and
run-queue tie-breaks — see :data:`repro.sim.engine.PERTURB_FEATURES`),
and compares every run with the unperturbed baseline.  :func:`shrink`
greedily drops features to the minimal subset that still fails.

**The sweep** (:func:`sweep`) varies the error path.  A *recording*
pass (failpoints count their hits but never fire) learns which sites a
scenario reaches and how often; then the scenario re-runs with one site
armed at a time — first hit, last hit and (``deep``) the quartiles.
:func:`shrink_hit` walks a failing hit index toward 1.  The two
abrupt-kill sites (:data:`KILL_SITES`) are the exception to "the run
completes": SIGKILL mid-protocol may legitimately stall the *guest* (a
peer waiting on a dead participant), so a stall there passes as long as
the invariants hold on the stuck state.

Every failure is reproducible: its report prints one ``python -m
repro.check`` command, the flags of the smallest failing run the
shrinker found.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.check.invariants import audit_leaks, check_leaks, run_invariants
from repro.check.scenarios import DEFAULT_SCENARIOS, SCENARIOS, Scenario
from repro.errors import DeadlockError, SimulationError
from repro.obs.lockdep import LockOrderViolation
from repro.sim.engine import PERTURB_FEATURES

#: failing seeds the explorer shrinks and reports per scenario
MAX_FAILURES_PER_SCENARIO = 3

#: sites that deliver SIGKILL rather than an errno — a stalled guest
#: protocol is tolerated for these, a dirty kernel state is not
KILL_SITES = frozenset({"syscall.entry", "syscall.exit"})


def _canonical(value):
    """``out`` dicts come back with tuple keys/values; make them JSON-safe."""
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bytes):
        return value.decode("latin-1")
    return value


class RunResult:
    """One scenario run: what the search varied, and how the run ended.

    The explorer varies ``seed``/``features``, the sweep ``site``/
    ``policy``.  ``error_kind`` is None when the run passed; otherwise it
    is ``lockdep``, the :class:`~repro.errors.SimulationError` subclass
    that ended the run (``DeadlockError`` for a stall), ``invariant``,
    ``divergence`` or ``leak``, and ``error`` carries the detail.
    """

    def __init__(
        self,
        scenario: str,
        seed: Optional[int] = None,
        features: Optional[frozenset] = None,
        site: Optional[str] = None,
        policy: Optional[str] = None,
    ):
        self.scenario = scenario
        self.seed = seed
        self.features = features
        self.site = site
        self.policy = policy
        self.error_kind: Optional[str] = None
        self.error: Optional[str] = None
        self.note = ""
        self.fingerprint: Optional[dict] = None
        self.fired = 0
        self.cycles = 0

    @property
    def ok(self) -> bool:
        return self.error_kind is None

    def _fail(self, kind: str, detail: str) -> None:
        self.error_kind, self.error = kind, detail

    def varied(self) -> Dict[str, str]:
        """The search's choices for this run, as CLI flag values."""
        if self.site is not None:
            return {"site": self.site, "policy": str(self.policy)}
        choices: Dict[str, str] = {}
        if self.seed is not None:
            choices["seed"] = str(self.seed)
        if self.features:
            choices["features"] = ",".join(sorted(self.features))
        return choices

    def flags(self) -> List[str]:
        """The ``python -m repro.check`` arguments that rerun this run."""
        flags = ["inject"] if self.site is not None else []
        flags += ["--scenario", self.scenario]
        for name, value in self.varied().items():
            flags += ["--" + name, value]
        return flags

    def label(self) -> str:
        return " ".join(
            [self.scenario]
            + ["%s=%s" % choice for choice in self.varied().items()]
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "features": sorted(self.features) if self.features is not None else None,
            "site": self.site,
            "policy": self.policy,
            "ok": self.ok,
            "error_kind": self.error_kind,
            "error": self.error,
            "note": self.note,
            "fingerprint": self.fingerprint,
            "fired": self.fired,
            "cycles": self.cycles,
        }

    def render(self) -> str:
        status = self.error_kind or ("passed" if self.note else "completed")
        lines = ["%s: %s in %d cycles" % (self.label(), status, self.cycles)]
        if self.site is not None:
            lines[0] += ", fired %d" % self.fired
        lines.extend("  | " + line for line in (self.error or self.note).splitlines())
        if self.fingerprint is not None:
            lines.append(json.dumps(self.fingerprint, indent=2, sort_keys=True))
        return "\n".join(lines)


def run_once(
    scenario: Scenario,
    seed: Optional[int] = None,
    features: Optional[Iterable[str]] = None,
    site: Optional[str] = None,
    policy: Optional[str] = None,
    baseline: Optional[RunResult] = None,
) -> RunResult:
    """Run a scenario once; never raises, classifies what happened.

    ``seed``/``features`` perturb the schedule, ``site``/``policy`` arm
    one failpoint, and a ``baseline`` demands the same fingerprint.
    """
    result = RunResult(
        scenario.name,
        seed,
        frozenset(features) if features is not None else None,
        site,
        policy,
    )
    out, sim = scenario.boot(
        seed=seed,
        features=features,
        inject={site: str(policy)} if site is not None else None,
    )
    try:
        sim.run()
    except LockOrderViolation as exc:
        result._fail("lockdep", str(exc))
    except DeadlockError as exc:  # a lost wakeup, or a peer the kill stranded
        findings = run_invariants(sim)
        if site in KILL_SITES and not findings:
            result.note = "stalled after kill (tolerated; invariants clean)"
        else:
            detail = str(exc)
            if findings:
                detail += "; invariants: " + "; ".join(findings)
            result._fail("DeadlockError", detail)
    except SimulationError as exc:
        result._fail(type(exc).__name__, str(exc))
    else:
        stats = sim.kernel.stats
        invariants = run_invariants(sim)
        leaks = check_leaks(sim)
        result.fingerprint = {
            "out": _canonical(out),
            "frames": sim.machine.frames.allocated,
            "group_balance": stats["groups_created"] - stats["groups_freed"],
            "invariants": invariants,
        }
        if invariants:
            result._fail("invariant", "; ".join(invariants))
        elif leaks:
            result._fail("leak", "; ".join(leaks))
        elif baseline is not None and result.fingerprint != baseline.fingerprint:
            result._fail(
                "divergence",
                "final state differs from unperturbed baseline\n"
                "baseline:  %r\nperturbed: %r"
                % (baseline.fingerprint, result.fingerprint),
            )
    if site is not None:
        result.fired = sim.machine.inject.fired.get(site, 0)
    result.cycles = sim.engine.now
    return result


class Failure:
    """A failing run, plus the smallest failing run its shrinker found."""

    def __init__(self, result: RunResult, minimal: RunResult):
        self.result = result
        self.minimal = minimal
        self.kind = result.error_kind

    def repro_command(self) -> str:
        return " ".join(["python -m repro.check"] + self.minimal.flags())

    def to_dict(self) -> dict:
        data = self.result.to_dict()
        data["repro"] = self.repro_command()
        return data

    def render(self) -> str:
        lines = [
            "FAIL %s kind=%s" % (self.result.label(), self.kind),
            "  repro: %s" % self.repro_command(),
        ]
        lines.extend("  | " + line for line in str(self.result.error).splitlines())
        return "\n".join(lines)


class Report:
    """Everything one search learned."""

    def __init__(
        self,
        title: str,
        scenarios: List[str],
        site_coverage: Optional[Dict[str, List[str]]] = None,
    ):
        self.title = title
        self.scenarios = scenarios
        self.runs = 0
        self.failures: List[Failure] = []
        self.baseline_errors: List[Tuple[str, str]] = []
        #: the sweep's coverage, site -> the scenarios that reach it;
        #: None for the explorer, which arms no site
        self.site_coverage = site_coverage

    @property
    def ok(self) -> bool:
        return not self.failures and not self.baseline_errors

    def to_dict(self) -> dict:
        data = {
            "search": self.title,
            "scenarios": self.scenarios,
            "runs": self.runs,
            "ok": self.ok,
            "baseline_errors": [
                {"scenario": name, "detail": detail}
                for name, detail in self.baseline_errors
            ],
            "failures": [failure.to_dict() for failure in self.failures],
        }
        if self.site_coverage is not None:
            data["site_coverage"] = {
                site: sorted(names)
                for site, names in sorted(self.site_coverage.items())
            }
        return data

    def render(self) -> str:
        lines = ["%s, %d runs" % (self.title, self.runs)]
        if self.site_coverage is not None:
            lines[0] += ", %d distinct sites reached" % len(self.site_coverage)
            lines.extend(
                "  %-20s via %s" % (site, ",".join(sorted(names)))
                for site, names in sorted(self.site_coverage.items())
            )
        for name, detail in self.baseline_errors:
            lines.append("BASELINE FAIL %s" % name)
            lines.extend("  | " + line for line in detail.splitlines())
        for failure in self.failures:
            lines.append(failure.render())
        lines.append("result: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the schedule explorer


def shrink(scenario: Scenario, failing: RunResult, baseline: RunResult) -> RunResult:
    """Greedily drop perturbation features while the run still fails."""
    features = failing.features or frozenset()
    smallest = failing
    for feature in sorted(features):
        trial = run_once(scenario, failing.seed, features - {feature}, baseline=baseline)
        if not trial.ok:
            smallest, features = trial, features - {feature}
    return smallest


def explore(
    scenario_names: Optional[Iterable[str]] = None, nseeds: int = 8
) -> Report:
    """Run each scenario unperturbed, then under ``nseeds`` seeds."""
    names = list(scenario_names) if scenario_names else list(DEFAULT_SCENARIOS)
    report = Report(
        "schedule explorer: %d scenario(s) x %d seed(s)" % (len(names), nseeds),
        names,
    )
    for name in names:
        scenario = SCENARIOS[name]
        baseline = run_once(scenario)
        report.runs += 1
        if not baseline.ok:
            report.baseline_errors.append((name, str(baseline.error)))
            continue
        failures_here = 0
        for seed in range(nseeds):
            result = run_once(scenario, seed, PERTURB_FEATURES, baseline=baseline)
            report.runs += 1
            if result.ok:
                continue
            report.failures.append(
                Failure(result, shrink(scenario, result, baseline))
            )
            failures_here += 1
            if failures_here >= MAX_FAILURES_PER_SCENARIO:
                break
    return report


# ----------------------------------------------------------------------
# the fault-injection sweep


def _hit_indices(total: int, deep: bool) -> List[int]:
    """Which hit numbers to arm for a site hit ``total`` times."""
    if total <= 0:
        return []
    picks = {1, total}
    if deep:
        picks.update(
            n for n in (total // 4, total // 2, (3 * total) // 4) if n >= 1
        )
    return sorted(picks)


def shrink_hit(scenario: Scenario, failing: RunResult, hit: int) -> RunResult:
    """Greedily walk the failing hit index toward 1."""
    for candidate in sorted({1, hit // 4, hit // 2}):
        if 1 <= candidate < hit:
            trial = run_once(scenario, site=failing.site, policy="nth:%d" % candidate)
            if not trial.ok:
                return trial
    return failing


def sweep(
    scenario_names: Optional[Iterable[str]] = None,
    site_names: Optional[Iterable[str]] = None,
    deep: bool = False,
) -> Report:
    """Record each scenario, then inject every reached site in turn."""
    names = list(scenario_names) if scenario_names else list(SCENARIOS)
    wanted = frozenset(site_names) if site_names else None
    coverage: Dict[str, List[str]] = {}
    report = Report(
        "fault-injection sweep%s: %d scenario(s)"
        % (" (deep)" if deep else "", len(names)),
        names,
        coverage,
    )
    for name in names:
        scenario = SCENARIOS[name]
        try:
            _out, sim = scenario.run(record=True)
        except SimulationError as exc:
            report.baseline_errors.append((name, str(exc)))
            continue
        report.runs += 1
        findings = audit_leaks(sim)
        if findings:
            report.baseline_errors.append((name, "; ".join(findings)))
            continue
        hits = sim.machine.inject.hits
        for site in sorted(hits):
            if wanted is not None and site not in wanted:
                continue
            coverage.setdefault(site, []).append(name)
            for hit_no in _hit_indices(hits[site], deep):
                result = run_once(scenario, site=site, policy="nth:%d" % hit_no)
                report.runs += 1
                if not result.ok:
                    report.failures.append(
                        Failure(result, shrink_hit(scenario, result, hit_no))
                    )
                    break  # one failure per site is enough signal
    return report
