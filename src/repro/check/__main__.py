"""``python -m repro.check`` — the race-check / fault-injection CLI.

Modes (first positional argument, default ``explore``):

* **explore**: every scenario in ``--scenarios`` runs once unperturbed
  and once per seed in ``0..N-1``; exit 1 on any error, invariant
  finding, leak, lockdep violation or final-state divergence.

      python -m repro.check --seeds 8
      python -m repro.check --seeds 200 --report report.json

* **inject**: the fault-injection sweep — record which failpoints each
  scenario reaches, then arm them one at a time and audit for leaks.

      python -m repro.check inject
      python -m repro.check inject --deep --report inject-report.json

With ``--seed`` (explore) or ``--site``/``--policy`` (inject) the CLI
runs one scenario once — exactly the command a failure report prints:

      python -m repro.check --scenario racy-counter --seed 3 --features place
      python -m repro.check inject --scenario fd-churn --site fd.alloc --policy nth:3

Exit codes: 0 pass, 1 fail, 2 usage (an unknown scenario, site,
feature or policy).  ``--report PATH`` writes the run's or the search's
JSON in every mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, List, Optional, Union

from repro.check.explore import Report, RunResult, explore, run_once, sweep
from repro.check.scenarios import DEFAULT_SCENARIOS, SCENARIOS
from repro.inject import SITES, FailPlan
from repro.sim.engine import PERTURB_FEATURES


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="schedule explorer / invariant checker / fault injector",
    )
    parser.add_argument(
        "mode", nargs="?", default="explore", choices=["explore", "inject"],
        help="explore schedules (default) or sweep fault-injection sites",
    )
    parser.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="perturbation seeds per scenario (default 8, explore mode)",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="A,B",
        help="comma-separated scenario names (default: %s for explore, "
        "all for inject)" % ",".join(DEFAULT_SCENARIOS),
    )
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="single scenario for --seed / --site reproduction modes",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="reproduce one explore run under this seed and exit",
    )
    parser.add_argument(
        "--features", default=None, metavar="F,G",
        help="perturbation features for --seed mode (default: all of %s)"
        % ",".join(sorted(PERTURB_FEATURES)),
    )
    parser.add_argument(
        "--site", default=None, metavar="SITE",
        help="inject mode: reproduce one injection at this failpoint",
    )
    parser.add_argument(
        "--policy", default="nth:1", metavar="P",
        help="inject mode: failpoint policy for --site (default nth:1)",
    )
    parser.add_argument(
        "--sites", default=None, metavar="A,B",
        help="inject mode: restrict the sweep to these sites",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="inject mode: also arm the quartile hit indices",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a JSON report here",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list scenarios (and inject sites) and exit",
    )
    return parser.parse_args(argv)


def _names(value: Optional[str]) -> List[str]:
    return [name for name in (value or "").split(",") if name]


def _unknown(names: Iterable[str], universe, what: str) -> Optional[str]:
    """Returns an error message when a name is unknown."""
    unknown = [name for name in names if name not in universe]
    if unknown:
        return "unknown %s(s): %s (have: %s)" % (
            what, ", ".join(unknown), ", ".join(sorted(universe)))
    return None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.list:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            default = " (default)" if name in DEFAULT_SCENARIOS else ""
            print("%-14s %s%s" % (name, scenario.description, default))
        if args.mode == "inject":
            print()
            for site in sorted(SITES):
                print("%-22s %s" % (site, SITES[site]))
        return 0

    inject = args.mode == "inject"
    single = args.site is not None if inject else args.seed is not None
    names = _names(args.scenarios)
    if single:
        names = [args.scenario or (names or list(DEFAULT_SCENARIOS))[0]]
    sites = ([args.site] if single else _names(args.sites)) if inject else []
    features = _names(args.features) or sorted(PERTURB_FEATURES)
    error = (
        _unknown(names, SCENARIOS, "scenario")
        or _unknown(sites, SITES, "site")
        or _unknown(features, PERTURB_FEATURES, "feature")
    )
    if error is None and single and inject:
        try:
            FailPlan(args.site, args.policy)
        except ValueError as exc:
            error = str(exc)
    if error:
        print(error, file=sys.stderr)
        return 2

    outcome: Union[RunResult, Report]
    if single and inject:
        outcome = run_once(SCENARIOS[names[0]], site=args.site, policy=args.policy)
    elif single:
        outcome = run_once(SCENARIOS[names[0]], seed=args.seed, features=features)
    elif inject:
        outcome = sweep(names, site_names=sites, deep=args.deep)
    else:
        outcome = explore(names, nseeds=args.seeds)
    print(outcome.render())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(outcome.to_dict(), fh, indent=2, sort_keys=True)
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
