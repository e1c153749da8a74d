"""Scheduler and CPU interpreter behaviour: parallelism, preemption,
quantum slicing, priorities, gang mode, per-CPU queues."""

import hashlib
import json

import pytest

from repro import PR_SALL, PR_SETGANG, System
from repro.kernel.proc import Proc, ProcState
from tests.conftest import run_program


def test_two_cpus_run_compute_in_parallel():
    """Two CPU-bound children on 2 CPUs finish in ~half the serial time."""
    work = 400_000

    def child(api, arg):
        yield from api.compute(work)
        return 0

    def main(api, out):
        start = api.now
        yield from api.fork(child)
        yield from api.fork(child)
        yield from api.wait()
        yield from api.wait()
        out["elapsed"] = api.now - start
        return 0

    out2, _ = run_program(main, ncpus=2)
    out1, _ = run_program(main, ncpus=1)
    assert out1["elapsed"] > 1.7 * out2["elapsed"], (
        "1-CPU run should be ~2x slower: %s vs %s"
        % (out1["elapsed"], out2["elapsed"])
    )


def test_speedup_scales_with_cpus():
    work = 200_000
    nchildren = 4

    def child(api, arg):
        yield from api.compute(work)
        return 0

    def main(api, out):
        start = api.now
        for _ in range(nchildren):
            yield from api.fork(child)
        for _ in range(nchildren):
            yield from api.wait()
        out["elapsed"] = api.now - start
        return 0

    elapsed = {}
    for ncpus in (1, 2, 4):
        out, _ = run_program(main, ncpus=ncpus)
        elapsed[ncpus] = out["elapsed"]
    assert elapsed[1] > elapsed[2] > elapsed[4]
    assert elapsed[1] / elapsed[4] > 2.5


def test_quantum_interleaves_cpu_hogs():
    """On one CPU two compute-bound procs must time-slice, not run FIFO."""

    def hog(api, ctx):
        log, tag = ctx
        for _ in range(6):
            yield from api.compute(60_000)  # less than a quantum each
            log.append((tag, api.now))
        return 0

    def main(api, log):
        yield from api.fork(hog, (log, "A"))
        yield from api.fork(hog, (log, "B"))
        yield from api.wait()
        yield from api.wait()
        return 0

    log = []
    sim = System(ncpus=1)
    sim.spawn(lambda api, a: main(api, log))
    sim.run()
    tags = [tag for tag, _ in log]
    # both procs must make progress before either finishes
    first_b = tags.index("B")
    last_a = len(tags) - 1 - tags[::-1].index("A")
    assert first_b < last_a, "B never ran before A finished: %s" % tags


def test_priority_preemption_favors_low_pri_number():
    """A nice'd (worse) process must not starve the better one."""

    def low(api, out):
        yield from api.nice(10)  # worse priority
        yield from api.compute(200_000)
        out["low_done"] = api.now
        return 0

    def high(api, out):
        yield from api.compute(200_000)
        out["high_done"] = api.now
        return 0

    def main(api, out):
        yield from api.fork(low, out)
        yield from api.compute(5000)
        yield from api.fork(high, out)
        yield from api.wait()
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=1)
    assert out["high_done"] < out["low_done"]


def test_yield_cpu_rotates_the_run_queue():
    def polite(api, ctx):
        log, tag = ctx
        for _ in range(3):
            log.append(tag)
            yield from api.yield_cpu()
        return 0

    def main(api, log):
        yield from api.fork(polite, (log, "A"))
        yield from api.fork(polite, (log, "B"))
        yield from api.wait()
        yield from api.wait()
        return 0

    log = []
    sim = System(ncpus=1)
    sim.spawn(lambda api, a: main(api, log))
    sim.run()
    assert "A" in log and "B" in log
    # yields should interleave rather than batch
    assert log != sorted(log)


def test_idle_cpu_picks_up_new_work_immediately():
    def child(api, out):
        out["child_started"] = api.now
        yield from api.compute(10)
        return 0

    def main(api, out):
        out["forked_at"] = api.now
        yield from api.fork(child, out)
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    # dispatch latency should be on the order of a context switch
    assert out["child_started"] - out["forked_at"] < 20_000


def test_cpu_utilization_accounting():
    def child(api, arg):
        yield from api.compute(100_000)
        return 0

    def main(api, out):
        yield from api.fork(child)
        yield from api.fork(child)
        yield from api.wait()
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    assert 0.1 < sim.machine.utilization() <= 1.0


@pytest.mark.parametrize("kind", ["percpu", "global"])
def test_gang_scheduling_dispatches_members_together(kind):
    """Extension (section 8): gang members run side by side."""

    def member(api, ctx):
        log, tag = ctx
        log.append((tag, "start", api.now))
        yield from api.compute(50_000)
        log.append((tag, "end", api.now))
        return 0

    def main(api, log):
        yield from api.prctl(PR_SETGANG, 1)  # fails: not yet in a group
        yield from api.sproc(member, PR_SALL, (log, "m1"))
        yield from api.prctl(PR_SETGANG, 1)
        yield from api.sproc(member, PR_SALL, (log, "m2"))
        yield from api.wait()
        yield from api.wait()
        return 0

    log = []
    sim = System(ncpus=4, scheduler=kind)
    sim.spawn(lambda api, a: main(api, log))
    sim.run()
    starts = sorted(t for _, what, t in log if what == "start")
    assert len(starts) == 2
    # co-dispatch: start times within one context-switch of each other
    assert starts[1] - starts[0] < 5_000


def test_no_proc_on_two_cpus_at_once():
    """Invariant check while a busy workload runs."""

    def child(api, arg):
        for _ in range(10):
            yield from api.compute(5_000)
            yield from api.yield_cpu()
        return 0

    sim = System(ncpus=4)
    seen_bad = []

    def main(api, arg):
        for _ in range(8):
            yield from api.fork(child)
        for _ in range(8):
            yield from api.wait()
        return 0

    sim.spawn(main)
    machine = sim.machine
    engine = sim.engine
    guard = {"stop": False}

    def check():
        running = [cpu.current for cpu in machine.cpus if cpu.current]
        if len(running) != len(set(running)):
            seen_bad.append(list(running))
        if not guard["stop"]:
            engine.schedule(1_000, check)

    engine.schedule(1_000, check)
    engine.run(max_events=500_000)
    guard["stop"] = True
    assert not seen_bad


# ----------------------------------------------------------------------
# per-CPU run queues: affinity, stealing, gang accounting


def _busy_group_workload(api, arg):
    """Several procs trading the CPUs: plenty of requeue traffic."""

    def child(api, arg):
        for _ in range(5):
            yield from api.compute(30_000)
            yield from api.yield_cpu()
        return 0

    for _ in range(6):
        yield from api.fork(child)
    for _ in range(6):
        yield from api.wait()
    return 0


def test_affinity_rewarms_the_last_cpu():
    """Requeued procs go back to the CPU they ran on and are counted."""
    sim = System(ncpus=2)
    sim.spawn(_busy_group_workload)
    sim.run()
    sched = sim.kernel.sched
    assert sched.affinity_hits > 0
    assert sched.affinity_hits > sched.migrations
    kstat = sim.kstat.scope("kernel", 0)
    assert kstat.get("sched_affinity_hits") == sched.affinity_hits
    assert kstat.get("sched_migrations", 0) == sched.migrations
    assert kstat.get("sched_steals", 0) == sched.steals


def test_idle_cpu_steals_queued_work():
    """A CPU going idle takes work queued on a busy peer's queue."""

    def short(api, arg):
        yield from api.compute(10_000)
        return 0

    def long(api, out):
        out["long_started"] = api.now
        yield from api.compute(50_000)
        return 0

    def main(api, out):
        # main holds CPU0 throughout; short runs on CPU1; long lands on
        # a queue and must be stolen by CPU1 when short exits
        yield from api.fork(short)
        yield from api.fork(long, out)
        yield from api.compute(300_000)
        yield from api.wait()
        yield from api.wait()
        return 0

    out, sim = run_program(main, ncpus=2)
    sched = sim.kernel.sched
    assert sched.steals >= 1
    assert sim.kstat.scope("kernel", 0).get("sched_steals") == sched.steals
    # the steal happened long before main's compute finished
    assert out["long_started"] < 300_000


class _StubVM:
    """The one thing a dispatch reads off a stub's address space."""

    asid = 0


def _make_stub_proc(pid, pri=20):
    proc = Proc(pid, None, _StubVM(), name="stub%d" % pid)
    proc.pri = pri
    return proc


class _FakeGangBlock:
    """Stands in for a SharedAddressBlock with gang mode on."""

    gang = True

    def __init__(self, members):
        self._members = members

    def members(self):
        return list(self._members)


def _occupy(sim, cpu, proc):
    sim.kernel.sched._idle.remove(cpu)
    cpu.current = proc
    proc.cpu = cpu
    proc.state = ProcState.RUNNING


def _occupy_only_cpu(sim, proc):
    cpu = sim.machine.cpus[0]
    _occupy(sim, cpu, proc)
    return cpu


def _free(sim, cpu):
    """``cpu``'s stub process blocks: the CPU goes back to the scheduler."""
    cpu.current.cpu = None
    cpu.current = None
    sim.kernel.sched.cpu_idle(cpu)


@pytest.mark.parametrize("kind", ["percpu", "global"])
def test_quantum_polling_does_not_inflate_gang_holds(kind):
    """Regression: _gang_blocked bumped gang_holds on every
    should_preempt poll, so the stat grew without any dispatch attempt."""
    sim = System(ncpus=1, scheduler=kind)
    sched = sim.kernel.sched
    running = _make_stub_proc(100)
    cpu = _occupy_only_cpu(sim, running)

    m1, m2 = _make_stub_proc(101), _make_stub_proc(102)
    block = _FakeGangBlock([m1, m2])
    m1.shaddr = m2.shaddr = block
    m1.state = m2.state = ProcState.SLEEPING
    sched.wakeup(m1)
    sched.wakeup(m2)

    before = sched.gang_holds
    for _ in range(5):
        # the gang (2 runnable members) cannot fit on 0 idle CPUs, so
        # the running proc must not be preempted for it...
        assert not sched.should_preempt(cpu, running)
    # ...and polling alone must not count as a gang hold
    assert sched.gang_holds == before


@pytest.mark.parametrize("kind", ["percpu", "global"])
def test_gang_hold_counted_once_per_blocked_dispatch(kind):
    sim = System(ncpus=2, scheduler=kind)
    sched = sim.kernel.sched
    runners = [_make_stub_proc(100), _make_stub_proc(103)]
    for cpu, running in zip(sim.machine.cpus, runners):
        _occupy(sim, cpu, running)

    m1, m2 = _make_stub_proc(101), _make_stub_proc(102)
    block = _FakeGangBlock([m1, m2])
    m1.shaddr = m2.shaddr = block
    m1.state = m2.state = ProcState.SLEEPING
    # no CPU idle: waking the members queues them without a dispatch
    # attempt, so no hold is recorded yet
    sched.wakeup(m1)
    sched.wakeup(m2)
    assert sched.gang_holds == 0

    # one CPU frees up; the gang needs two, so the dispatch attempt
    # records exactly one hold and asks the non-member to make room
    cpu1 = sim.machine.cpus[1]
    _free(sim, cpu1)
    assert sched.gang_holds == 1
    assert runners[0].need_resched
    # the reserved CPU stays idle rather than running anything else
    assert sched.idle_count == 1
    sched.cpu_idle(cpu1)  # re-poll: one more dispatch attempt, one more hold
    assert sched.gang_holds == 2


@pytest.mark.parametrize("kind", ["percpu", "global"])
def test_gang_codispatch_takes_every_member_at_once(kind):
    """Regression: the companions were counted after the chosen member
    was placed, when it no longer counted as runnable, so one fewer was
    taken.  Here the third reserved CPU then went to a non-member
    queued ahead of the last member, and the gang ran split."""
    sim = System(ncpus=4, scheduler=kind)
    sched = sim.kernel.sched
    cpus = sim.machine.cpus
    for idx, cpu in enumerate(cpus):
        _occupy(sim, cpu, _make_stub_proc(100 + idx))
    m1, m2, m3, y = (_make_stub_proc(pid) for pid in (201, 202, 203, 204))
    block = _FakeGangBlock([m1, m2, m3])
    m1.shaddr = m2.shaddr = m3.shaddr = block
    y.last_cpu = m3.last_cpu = 2  # one per-CPU queue, y ahead of m3
    for proc in (m1, m2, y, m3):
        proc.state = ProcState.SLEEPING
        sched.wakeup(proc)
    for cpu in cpus[:3]:
        _free(sim, cpu)  # the first two idle CPUs are held for the gang
    assert [m.state for m in (m1, m2, m3)] == [ProcState.RUNNING] * 3
    assert y.state is ProcState.RUNNABLE
    assert sched.gang_dispatches == 1


def test_reprioritize_rekeys_a_queued_proc():
    """Seen through a dispatch: FIFO within equal priority, and a
    re-keyed entry wins once its priority improves."""
    for boost in (False, True):
        sim = System(ncpus=1)
        sched = sim.kernel.sched
        cpu = _occupy_only_cpu(sim, _make_stub_proc(100))
        a, b = _make_stub_proc(101), _make_stub_proc(102)
        a.state = b.state = ProcState.SLEEPING
        sched.wakeup(a)
        sched.wakeup(b)
        if boost:
            b.pri = 5
            sched.reprioritize(b)
        _free(sim, cpu)
        assert cpu.current is (b if boost else a)


def test_setgrouppri_reorders_queued_members():
    """PR_SETGROUPPRI on queued members must re-key their heap entries."""
    from repro.share.prctl import PR_SETGROUPPRI

    def member(api, ctx):
        log, tag = ctx
        yield from api.compute(40_000)
        log.append(tag)
        return 0

    def hog(api, arg):
        yield from api.compute(400_000)
        return 0

    def main(api, log):
        yield from api.fork(hog)
        yield from api.sproc(member, PR_SALL, (log, "m1"))
        yield from api.sproc(member, PR_SALL, (log, "m2"))
        yield from api.prctl(PR_SETGROUPPRI, 5)
        yield from api.compute(200_000)
        for _ in range(3):
            yield from api.wait()
        log.append("main")
        return 0

    log = []
    sim = System(ncpus=2)
    sim.spawn(lambda api, a: main(api, log))
    sim.run()
    # the boosted members finished while the pri-20 hog was still queued
    assert log.index("m1") < 2 and log.index("m2") < 2


@pytest.mark.parametrize("kind", ["percpu", "global"])
def test_metrics_toggle_is_bit_identical(kind):
    """Turning instrumentation off must not change simulated results."""
    cycles = {}
    for metrics in (True, False):
        sim = System(ncpus=2, metrics_enabled=metrics, scheduler=kind)
        sim.spawn(_busy_group_workload)
        cycles[metrics] = sim.run()
    assert cycles[True] == cycles[False]


def test_global_scheduler_ablation_still_schedules():
    """scheduler="global" keeps the old single-queue behaviour working."""

    def child(api, arg):
        yield from api.compute(100_000)
        return 0

    def main(api, out):
        start = api.now
        for _ in range(4):
            yield from api.fork(child)
        for _ in range(4):
            yield from api.wait()
        out["elapsed"] = api.now - start
        return 0

    out, sim = run_program(main, ncpus=4, scheduler="global")
    sched = sim.kernel.sched
    assert sched.kind == "global"
    assert out["elapsed"] < 4 * 100_000  # still runs children in parallel
    assert sched.affinity_hits == 0  # global placement ignores last_cpu


def test_percpu_scans_fewer_entries_than_global():
    """The point of the rewrite: dispatch work no longer scales with the
    number of runnable processes."""
    scans = {}
    for kind in ("percpu", "global"):
        sim = System(ncpus=2, scheduler=kind)
        sim.spawn(_busy_group_workload)
        sim.run()
        sched = sim.kernel.sched
        assert sched.picks > 0
        scans[kind] = sched.scan_steps / sched.picks
    assert scans["percpu"] < scans["global"]


def test_runq_depth_gauge_tracks_queue_and_drains_to_zero():
    sim = System(ncpus=2)
    sim.spawn(_busy_group_workload)
    sim.run()
    sched = sim.kernel.sched
    assert sched.queue_depths() == [0, 0]
    for idx in range(2):
        assert sim.kstat.scope("cpu", idx).get("runq_depth") == 0


def test_unknown_scheduler_name_is_rejected():
    with pytest.raises(ValueError):
        System(ncpus=1, scheduler="nope")


# ----------------------------------------------------------------------
# the perturbed per-CPU schedule, pinned across commits: the fast/naive
# fingerprint compares two loops over one scheduler, so only fixed
# digests can tell that a rewrite of the queues kept every placement,
# tie-break and RNG draw


def _pin_member(api, arg):
    step, nice = arg
    if nice:
        yield from api.nice(nice)
    for i in range(12):
        yield from api.compute(step + 40 * (i % 4))
        yield from api.getpid()
        yield from api.yield_cpu()
    return 0


def _pin_leader(api, leader):
    for k in range(3):
        nice = 2 if (leader, k) == (1, 0) else 0
        yield from api.sproc(_pin_member, PR_SALL, (250 + 60 * leader + 30 * k, nice))
    if leader == 0:
        yield from api.prctl(PR_SETGANG, 1)
    for _ in range(3):
        yield from api.wait()
    return 0


def _pin_main(api, arg):
    for leader in range(3):
        yield from api.fork(_pin_leader, leader)
    for _ in range(3):
        yield from api.wait()
    return 0


_PIN_COUNTERS = (
    "picks", "scan_steps", "steals", "affinity_hits", "migrations",
    "wakeups", "gang_dispatches", "gang_holds",
)

#: seed -> digest of the mix above on 4 CPUs, every perturbation feature
_PINNED_SCHEDULES = {
    None: "1fdfd29c74d5140f",
    1: "a8f9fc35386f0c84",
    2: "3b0f3db53ce11bed",
    3: "ff01bf29b851a3a1",
    4: "fb7b7c5d349a9211",
    5: "d618cb44cfc423eb",
    6: "253daa774229835c",
    7: "91dc2d82ffbb687a",
    8: "05b44ed95f1db096",
}


def _pin_digest(sim):
    """Run the mix above to the end; one digest of everything simulated."""
    sim.spawn(_pin_main)
    sim.run()
    sched = sim.kernel.sched
    counts = {name: getattr(sched, name) for name in _PIN_COUNTERS}
    blob = json.dumps(
        [sim.now, sim.engine.events_processed, sim.kstat.snapshot(),
         sim.stats, counts],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16], counts


def test_perturbed_percpu_schedule_is_pinned():
    """Perturbed enqueue, select and place, gang reservation, work
    stealing and a niced member: one fixed digest per seed."""
    digests = {}
    for seed in _PINNED_SCHEDULES:
        digests[seed], counts = _pin_digest(System(ncpus=4, perturb_seed=seed))
        assert counts["gang_dispatches"] > 0 and counts["steals"] > 0
    assert digests == _PINNED_SCHEDULES


#: the same mix on 4 CPUs under the global scheduler.  The seeded RNG is
#: never drawn on it, so seeds None and 1-8 all give this digest and the
#: unperturbed run stands for them
_PINNED_GLOBAL_SCHEDULE = "01f06222dbfe31a0"


def test_global_schedule_is_pinned():
    """The E15 ablation's dispatch loop, gang co-dispatch included,
    keeps its schedule across commits too."""
    digest, counts = _pin_digest(System(ncpus=4, scheduler="global"))
    assert counts["steals"] == 0 and counts["gang_dispatches"] > 0
    assert digest == _PINNED_GLOBAL_SCHEDULE
