"""Start-up pays only for what a run uses.

A benchmark run imports the simulator, the invariant pack and the E17
server, and no package ``__init__`` may drag in a module such a run
never calls.  E17's input builder draws its bytes and batches in bulk;
the per-item loops it replaced stay here as the reference it must
match exactly.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.experiments import E17_RATES, _e17_config
from repro.workloads.generators import lcg, payload
from repro.workloads.server import ArrivalSchedule, ServerConfig

ROOT = Path(__file__).resolve().parents[1]

#: modules that only package ``__init__`` re-exports used to import
UNCALLED = (
    "repro.check.explore",
    "repro.check.scenarios",
    "repro.workloads.models",
    "repro.obs.procfs",
    "repro.runtime.hybridlock",
    "repro.runtime.prda",
)

#: what perfbench/suite.py imports, then one two-CPU run
RUN = """
import sys
import repro
import repro.check.invariants
import repro.workloads.generators
import repro.workloads.server


def main(api, arg):
    yield from api.compute(100)
    return 0


sim = repro.System(ncpus=2)
sim.spawn(main)
sim.run()
print(" ".join(name for name in %r if name in sys.modules))
""" % (UNCALLED,)


def test_a_benchmark_run_imports_no_uncalled_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", RUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


# ----------------------------------------------------------------------
# the per-item loops the bulk forms replaced


def _reference_payload(nbytes, seed):
    gen = lcg(seed)
    out = bytearray()
    while len(out) < nbytes:
        out += next(gen).to_bytes(4, "little")
    return bytes(out[:nbytes])


def _reference_schedule(cfg):
    """``ArrivalSchedule(cfg)`` as ``(bid, group, offset, keys, nreq)``
    rows, one ``next`` per drawn key."""
    gen = lcg(cfg.seed)
    mean_gap = cfg.batch * 1000.0 / cfg.rate_per_kcycle
    rows = []
    offset = 0
    remaining = cfg.nrequests
    for bid in range(cfg.nbatches):
        u = (next(gen) + 1) / 4294967296.0
        gap = max(1, int(-mean_gap * math.log(u)))
        if cfg.burst_every and (bid % cfg.burst_every) < cfg.burst_len:
            gap = max(1, gap // cfg.burst_factor)
        offset += gap
        nreq = min(cfg.batch, remaining)
        remaining -= nreq
        group = next(gen) % cfg.ngroups
        counts = {}
        for _ in range(nreq):
            u = next(gen) / 4294967296.0
            u2 = u * u
            key = min(cfg.keyspace - 1, int(u2 * u2 * u * cfg.keyspace))
            counts[key] = counts.get(key, 0) + 1
        rows.append((bid, group, offset, sorted(counts.items()), nreq))
    return rows, offset


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("nbytes", [-5, 0, 1, 3, 4, 5, 4097, 32 * 4096])
def test_payload_matches_the_word_loop(nbytes, seed):
    assert payload(nbytes, seed) == _reference_payload(nbytes, seed)


#: perfbench's ``server`` workload, every quick-scale E17 rate and the
#: first full-scale one.  The rates of one scale differ only in the gap
#: scale and the length, and each draws the same words per batch, so
#: the first full rate checks the first 150,000 keys every full rate
#: draws, at a fifth of the time
CONFIGS = (["perfbench-server"]
           + ["quick " + row[0] for row in E17_RATES]
           + ["full " + E17_RATES[0][0]])


def _config(name, seed):
    if name == "perfbench-server":
        # perfbench/suite.py ``Server.config``
        cfg = ServerConfig(
            ngroups=2, nworkers=4, naio=8, batch=64, keyspace=128,
            cache_capacity=112, nshards=4, npages=32, nrequests=36_000,
            rate_per_kcycle=2.8 * 0.90,
        )
    else:
        scale, label = name.split()
        row = next(row for row in E17_RATES if row[0] == label)
        cfg, _ = _e17_config(scale, *row)
    cfg.seed = seed
    return cfg


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("name", CONFIGS)
def test_arrival_schedule_matches_the_key_loop(name, seed):
    cfg = _config(name, seed)
    plan = ArrivalSchedule(cfg)
    rows, horizon = _reference_schedule(cfg)
    assert [(b.bid, b.group, b.offset, b.keys, b.nreq)
            for b in plan.batches] == rows
    assert plan.horizon == horizon
