"""The benchmark's three workloads, built on the public ``repro`` API.

Each workload turns a seed into inputs on the host, builds a
:class:`repro.System` and spawns the simulated program (the *set-up*
phase), lets the caller time :meth:`Trial.run` (the *simulation* phase),
and then checks the simulated outputs in :meth:`Trial.finish`.  The
simulated programs receive only the generated inputs, so a seed fully
determines the simulated history: every ``sim_*`` metric and the state
digest repeat exactly for a given seed and size.

Why these three (the host-time census behind each choice is in
``perfbench/README.md``):

* ``server`` is the only workload that loads the memory-instruction
  path, the fault path with range shootdowns, user spinlocks and AIO;
* ``sched-churn`` drives the scheduler and the engine queue, and
  bypasses the memory path and the syscall trampoline;
* ``share-sync`` drives the syscall trampoline, the sync-on-entry flag
  test (as readers that miss and writers that flag peers), files and
  pipes, and bypasses the fault path.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional

from repro import PR_SALL, System
from repro.check.invariants import run_invariants
from repro.errors import DeadlockError
from repro.fs.file import O_APPEND, O_CREAT, O_RDONLY, O_WRONLY
from repro.kernel.proccalls import status_code, status_exited
from repro.workloads.generators import lcg
from repro.workloads.server import ServerConfig, run_server, weighted_percentile

NCPUS = 4


class Result:
    """What one simulated run produced, after its correctness checks.

    ``failures`` maps a failure kind to its count; ``metrics`` holds the
    simulated end-to-end figures; ``counts`` the per-layer simulated
    counts read from public state.
    """

    def __init__(self, attempted: int, failures: Dict[str, int],
                 metrics: Dict[str, float], counts: Dict[str, float],
                 digest: str):
        self.attempted = attempted
        self.failures = failures
        self.metrics = metrics
        self.counts = counts
        self.digest = digest

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Trial:
    """One set-up simulation: :meth:`run` it once, then :meth:`finish`.

    ``outputs`` is the host-side record the simulated programs fill in
    (``ServerStats`` or a context dict); ``check(sim)`` counts failures
    in it, ``sim_metrics(sim)`` adds workload-specific simulated figures
    and ``digest_extra()`` adds outputs the state digest must cover.
    """

    def __init__(self, system: System, attempted: int, outputs,
                 check: Callable[[System], Dict[str, int]],
                 sim_metrics: Callable[[System], Dict[str, float]],
                 digest_extra: Callable[[], object] = lambda: None):
        self.system = system
        self.attempted = attempted
        self.outputs = outputs
        self._check = check
        self._sim_metrics = sim_metrics
        self._digest_extra = digest_extra
        self.deadlocked = False

    def run(self, until: Optional[int] = None) -> None:
        """Run to quiescence, or only up to simulated cycle ``until``.

        Stopping at ``until`` and resuming later leaves the simulated
        history unchanged."""
        try:
            # the class's run, not an override that defers it
            System.run(self.system, until=until)
        except DeadlockError:
            self.deadlocked = True

    def finish(self) -> Result:
        sim = self.system
        failures = {"deadlock": int(self.deadlocked)}
        failures["invariants"] = len(run_invariants(sim))
        failures.update(self._check(sim))
        metrics = {"sim_cycles": float(sim.now)}
        metrics.update(self._sim_metrics(sim))
        snapshot = sim.kstat.snapshot()
        state = {
            "sim_cycles": sim.now,
            "events": sim.engine.events_processed,
            "kstat": snapshot,
            "stats": dict(sim.stats),
            "extra": self._digest_extra(),
        }
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]
        return Result(self.attempted, failures, metrics,
                      layer_counts(sim), digest)


def layer_counts(sim: System) -> Dict[str, float]:
    """Exact simulated counts, one group per layer, from public state."""
    engine = sim.engine
    stats = sim.stats
    kstat = sim.kstat
    sched = sim.kernel.sched
    cpus = sim.machine.cpus
    events = engine.events_processed
    lookups = kstat.get("kernel", 0, "vm_lookups")
    return {
        "engine.events": events,
        "engine.inline_frac": engine.inline_hops / max(events, 1),
        "cpu.context_switches": sum(cpu.switches for cpu in cpus),
        "cpu.tlb_misses": sum(cpu.tlb.misses for cpu in cpus),
        "fault.vm_lookups": lookups,
        "fault.pregion_scan_per_lookup":
            kstat.get("kernel", 0, "pregion_scan_len") / max(lookups, 1),
        "vm.shootdown_pages": kstat.get("kernel", 0, "shootdown_pages"),
        "kernel.syscalls": stats["syscalls"],
        "kernel.sprocs": stats["sprocs"],
        "kernel.sync_entries": stats["sync_entries"],
        "share.sync_entry_frac":
            stats["sync_entries"] / max(stats["syscalls"], 1),
        "sched.picks": sched.picks,
        "sched.scan_per_pick": sched.scan_steps / max(sched.picks, 1),
        "sched.affinity_frac": sched.affinity_hits / max(sched.picks, 1),
        "sched.steals": sched.steals,
        "sched.wakeups": sched.wakeups,
    }


def syscall_latency(sim: System) -> Dict[str, float]:
    """The kstat ``syscall_cycles`` histogram's median and p99."""
    hist = sim.kstat.hist("kernel", 0, "syscall_cycles")
    return {
        "sim_syscall_p50_cycles": hist.percentile(50.0),
        "sim_syscall_p99_cycles": hist.percentile(99.0),
        "sim_syscall_count": float(hist.count),
    }


# ----------------------------------------------------------------------
# server: E17's three-tier server, open loop just below the knee


class _DeferredSystem(System):
    """A System whose ``run`` returns at once.

    ``run_server`` generates its inputs, builds the System, spawns the
    root and then calls ``run``; with this class it returns right there,
    so the benchmark times set-up and simulation apart and drives the
    real :meth:`System.run` itself.
    """

    def run(self, until=None, max_events=None, check_deadlock=True):
        return self.engine.now


class Server:
    """E17's quick topology: 2 groups x 4 workers + 8 AIO, batch 64.

    Open loop at x0.90 of the quick topology's nominal 2.8 req/kcycle,
    on 4 CPUs; the seed drives the arrival schedule, keys and disk image.
    """

    name = "server"
    #: nominal capacity of this topology (E17 quick scale) and the load
    #: factor: x0.90 sits at the knee, where p99 reacts to scheduling
    #: and lock changes while throughput still tracks the offered load
    NOMINAL_PER_KCYCLE = 2.8
    LOAD = 0.90

    def __init__(self, size: int = 36_000):
        self.nrequests = size

    def config(self, seed: int) -> ServerConfig:
        return ServerConfig(
            ngroups=2, nworkers=4, naio=8, batch=64, keyspace=128,
            cache_capacity=112, nshards=4, npages=32,
            nrequests=self.nrequests,
            rate_per_kcycle=self.NOMINAL_PER_KCYCLE * self.LOAD, seed=seed,
        )

    def setup(self, seed: int) -> Trial:
        cfg = self.config(seed)
        out = run_server(cfg, ncpus=NCPUS, system_cls=_DeferredSystem)
        stats = out["stats"]

        def check(sim):
            return {
                "requests_not_completed": cfg.nrequests - stats.done_reqs,
                "verify_failures": stats.verify_failures,
            }

        def sim_metrics(sim):
            makespan = max(1, stats.t_last_done - stats.t0)
            metrics = {
                "sim_req_p50_cycles":
                    weighted_percentile(stats.latencies, 50.0),
                "sim_req_p99_cycles":
                    weighted_percentile(stats.latencies, 99.0),
                "sim_req_batches": float(len(stats.latencies)),
                "sim_throughput_per_kcycle":
                    stats.done_reqs * 1000.0 / makespan,
            }
            metrics.update(syscall_latency(sim))
            return metrics

        return Trial(out["system"], cfg.nrequests, stats, check, sim_metrics,
                     lambda: stats.latencies)


# ----------------------------------------------------------------------
# sched-churn: E15's fan-out, scaled up


def _churn_member(api, arg):
    step, rounds = arg
    for _ in range(rounds):
        yield from api.compute(step)
        yield from api.yield_cpu()
    return 0


def _reap(api, count: int, statuses: List[int]):
    for _ in range(count):
        _pid, status = yield from api.wait()
        statuses.append(status)


def _churn_leader(api, arg):
    members, statuses = arg
    for member in members:
        yield from api.sproc(_churn_member, PR_SALL, member)
    yield from _reap(api, len(members), statuses)
    return 0


def _churn_root(api, ctx):
    for members in ctx["groups"]:
        yield from api.fork(_churn_leader, (members, ctx["members"]))
    yield from _reap(api, len(ctx["groups"]), ctx["leaders"])
    return 0


def _bad_exits(statuses: List[int], expected: int) -> int:
    ok = sum(1 for s in statuses if status_exited(s) and status_code(s) == 0)
    return expected - ok


class SchedChurn:
    """8 fork'd leaders each ``sproc`` 6 ``PR_SALL`` members on 4 CPUs;
    every member loops ``compute(step)`` + ``yield_cpu``.

    The seed decides which member gets which compute step.  Closed:
    every member runs all its rounds.
    """

    name = "sched-churn"
    NGROUPS = 8
    NMEMBERS = 6

    def __init__(self, size: int = 1_000):
        self.rounds = size

    def inputs(self, seed: int) -> List[List[tuple]]:
        """Steps evenly spread over [300, 500], dealt to members in a
        seeded order: the seed moves work between members and groups,
        never the total."""
        n = self.NGROUPS * self.NMEMBERS
        steps = [300 + 200 * i // (n - 1) for i in range(n)]
        gen = lcg(seed)
        for i in range(n - 1, 0, -1):
            j = next(gen) % (i + 1)
            steps[i], steps[j] = steps[j], steps[i]
        return [[(steps[g * self.NMEMBERS + m], self.rounds)
                 for m in range(self.NMEMBERS)]
                for g in range(self.NGROUPS)]

    def setup(self, seed: int) -> Trial:
        ctx = {"groups": self.inputs(seed), "members": [], "leaders": []}
        sim = System(ncpus=NCPUS)
        sim.spawn(_churn_root, ctx, name="churn-root")
        nmembers = self.NGROUPS * self.NMEMBERS

        def check(sim):
            return {
                "members_failed": _bad_exits(ctx["members"], nmembers),
                "leaders_failed": _bad_exits(ctx["leaders"], self.NGROUPS),
            }

        return Trial(sim, nmembers * self.rounds, ctx, check, lambda sim: {})


# ----------------------------------------------------------------------
# share-sync: one share group passes a token round a pipe ring

_LOG = "/ring-log"
_INITIAL_UMASK = 0o022


class RingPlan:
    """The seeded schedule of a share-sync run.

    ``updater[r]`` is the member that updates shared state in round
    ``r`` (or -1): it sets the umask to ``mask[r]`` and appends a record
    to the shared log.  ``helper[r]`` is the member that ``sproc``'s a
    one-syscall helper in round ``r`` (or -1).  Every block of 4 rounds
    holds one update and every block of 64 one helper; the seed picks
    the round inside the block, the member and the mask, so it varies
    the interleaving but not the amount of work.
    """

    UPDATE_EVERY = 4
    HELPER_EVERY = 64

    def __init__(self, seed: int, rounds: int, nmembers: int):
        gen = lcg(seed)
        self.rounds = rounds
        self.updater = [-1] * rounds
        self.helper = [-1] * rounds
        self.mask = [0] * rounds
        for base in range(0, rounds - self.UPDATE_EVERY + 1, self.UPDATE_EVERY):
            r = base + next(gen) % self.UPDATE_EVERY
            self.updater[r] = next(gen) % nmembers
            self.mask[r] = 0o022 | (next(gen) & 0o055)
        for base in range(0, rounds - self.HELPER_EVERY + 1, self.HELPER_EVERY):
            self.helper[base + next(gen) % self.HELPER_EVERY] = (
                next(gen) % nmembers)

    def updates(self) -> List[int]:
        return [r for r in range(self.rounds) if self.updater[r] >= 0]


def _ring_helper(api, arg):
    yield from api.getpid()
    return 0


def _ring_member(api, arg):
    idx, nmembers, plan, ring, out = arg
    rfd = ring[idx][0]
    wfd = ring[(idx + 1) % nmembers][1]
    last = nmembers - 1
    mask = _INITIAL_UMASK
    bad = 0
    for r in range(plan.rounds):
        token = yield from api.read(rfd, 4)
        if token != r.to_bytes(4, "little"):
            bad += 1
        # readers: entries whose flag test finds nothing to sync
        yield from api.getpid()
        yield from api.getuid()
        if plan.updater[r] == idx:
            # writers: each update flags every peer for sync-on-entry;
            # the old umask proves the previous writer's update was seen
            old = yield from api.umask(plan.mask[r])
            if old != mask:
                bad += 1
            fd = yield from api.open(_LOG, O_CREAT | O_WRONLY | O_APPEND)
            yield from api.write(fd, r.to_bytes(4, "little"))
            yield from api.close(fd)
        if plan.updater[r] >= 0:
            mask = plan.mask[r]
        if plan.helper[r] == idx:
            yield from api.sproc(_ring_helper, PR_SALL)
            _pid, status = yield from api.wait()
            if not (status_exited(status) and status_code(status) == 0):
                bad += 1
        if idx == last:
            if r + 1 < plan.rounds:
                yield from api.write(wfd, (r + 1).to_bytes(4, "little"))
        else:
            yield from api.write(wfd, r.to_bytes(4, "little"))
    out["bad"] += bad
    return 0


def _ring_root(api, ctx):
    plan, nmembers = ctx["plan"], ctx["nmembers"]
    ring = []
    for _ in range(nmembers):
        ring.append((yield from api.pipe()))
    for idx in range(nmembers):
        yield from api.sproc(
            _ring_member, PR_SALL, (idx, nmembers, plan, ring, ctx))
    yield from api.write(ring[0][1], (0).to_bytes(4, "little"))
    yield from _reap(api, nmembers, ctx["members"])
    # the log holds one record per update, in round order
    fd = yield from api.open(_LOG, O_RDONLY)
    ctx["log"] = yield from api.read(fd, 4 * plan.rounds + 4)
    yield from api.close(fd)
    return 0


class ShareSync:
    """One 6-member ``PR_SALL`` group on 4 CPUs passing a token round a
    pipe ring.  Closed: one token, so one member runs at a time."""

    name = "share-sync"
    NMEMBERS = 6

    def __init__(self, size: int = 1_000):
        self.rounds = size

    def setup(self, seed: int) -> Trial:
        plan = RingPlan(seed, self.rounds, self.NMEMBERS)
        ctx = {"plan": plan, "nmembers": self.NMEMBERS,
               "members": [], "bad": 0, "log": b""}
        sim = System(ncpus=NCPUS)
        sim.spawn(_ring_root, ctx, name="ring-root")

        def check(sim):
            expected_log = b"".join(
                r.to_bytes(4, "little") for r in plan.updates())
            return {
                "members_failed": _bad_exits(ctx["members"], self.NMEMBERS),
                "member_checks_failed": ctx["bad"],
                "log_mismatch": int(ctx["log"] != expected_log),
                "syscall_errors": sim.stats["syscall_errors"],
            }

        return Trial(sim, self.NMEMBERS * self.rounds, ctx, check,
                     syscall_latency)


WORKLOADS = {cls.name: cls for cls in (Server, SchedChurn, ShareSync)}
