"""The observability layer: kstat counters, lock profiles, reports."""

import json

import pytest

from repro import PR_SALL, System
from repro.obs.kstat import Histogram, KstatRegistry
from repro.obs.lockstat import LockStatRegistry
from repro.sim.trace import Tracer

PAGE = 4096


# ----------------------------------------------------------------------
# registry unit tests


def test_kstat_counter_register_increment_reset():
    kstat = KstatRegistry()
    assert kstat.get("kernel", 0, "syscalls") == 0
    kstat.add("kernel", 0, "syscalls")
    kstat.add("kernel", 0, "syscalls", 4)
    kstat.add("proc", 7, "faults")
    assert kstat.get("kernel", 0, "syscalls") == 5
    assert kstat.get("proc", 7, "faults") == 1
    assert kstat.scopes("proc") == [7]
    assert kstat.scope("kernel", 0) == {"syscalls": 5}
    snap = kstat.snapshot()
    assert snap["kernel"][0]["syscalls"] == 5
    kstat.reset()
    assert kstat.get("kernel", 0, "syscalls") == 0
    assert kstat.snapshot() == {}


def test_kstat_gauge_and_histogram():
    kstat = KstatRegistry()
    kstat.set("cpu", 1, "runq_depth", 3)
    kstat.set("cpu", 1, "runq_depth", 2)
    assert kstat.get("cpu", 1, "runq_depth") == 2
    for value in (1, 2, 3, 100):
        kstat.observe("kernel", 0, "wait_hist", value)
    hist = kstat.hist("kernel", 0, "wait_hist")
    assert hist.count == 4
    assert hist.max == 100
    assert hist.mean == pytest.approx(106 / 4)
    payload = kstat.snapshot()["kernel"][0]["wait_hist"]
    assert payload["count"] == 4
    assert sum(payload["buckets"].values()) == 4


def test_histogram_power_of_two_buckets():
    hist = Histogram()
    hist.add(1)  # bucket 1
    hist.add(2)  # bucket 2
    hist.add(3)  # bucket 2
    hist.add(8)  # bucket 4
    assert hist.buckets == {1: 1, 2: 2, 4: 1}


def test_kstat_disabled_records_nothing():
    kstat = KstatRegistry(enabled=False)
    kstat.add("kernel", 0, "syscalls")
    kstat.set("cpu", 0, "g", 1)
    kstat.observe("kernel", 0, "h", 5)
    # handles from a disabled registry are private sinks
    kstat.counters("cpu", 0)["dispatches"] += 1
    kstat.counters("cpu", 0)["runq_depth"] = 3
    kstat.histogram("kernel", 0, "runq_wait").add(10)
    assert kstat.snapshot() == {}
    assert kstat.scopes("cpu") == [] and kstat.scopes("kernel") == []
    assert kstat.get("cpu", 0, "dispatches") == 0
    assert kstat.hist("kernel", 0, "runq_wait") is None


# ----------------------------------------------------------------------
# bound handles: counters(kind, ident) and histogram(kind, ident, name)


def test_untouched_handles_are_invisible_to_readers():
    kstat = KstatRegistry()
    scope = kstat.counters("cpu", 3)
    hist = kstat.histogram("kernel", 0, "wait")
    assert kstat.snapshot() == {}
    assert kstat.scopes("cpu") == [] and kstat.scopes("kernel") == []
    assert kstat.scope("cpu", 3) == {}
    assert kstat.get("cpu", 3, "dispatches") == 0
    assert kstat.hist("kernel", 0, "wait") is None
    assert kstat.hists("kernel", 0) == {}
    scope["dispatches"] += 1
    hist.add(7)
    assert kstat.scopes("cpu") == [3] and kstat.scopes("kernel") == [0]
    assert kstat.snapshot()["cpu"][3] == {"dispatches": 1}
    assert kstat.hist("kernel", 0, "wait") is hist
    assert kstat.hists("kernel", 0) == {"wait": hist}


def test_handles_and_registry_methods_share_storage():
    by_method = KstatRegistry()
    by_method.add("proc", 7, "syscalls", 2)
    by_method.set("cpu", 1, "runq_depth", 4)
    by_method.observe("kernel", 0, "lat", 100)
    by_method.observe_n("kernel", 0, "lat", 3, 2)
    by_handle = KstatRegistry()
    by_handle.counters("proc", 7)["syscalls"] += 2
    by_handle.counters("cpu", 1)["runq_depth"] = 4
    lat = by_handle.histogram("kernel", 0, "lat")
    lat.add(100)
    lat.add_n(3, 2)
    assert by_handle.snapshot() == by_method.snapshot()
    # one name, both paths: a single counter
    by_handle.add("proc", 7, "syscalls")
    by_handle.counters("proc", 7)["syscalls"] += 1
    assert by_handle.get("proc", 7, "syscalls") == 4
    assert by_handle.counters("proc", 7) is by_handle.counters("proc", 7)
    assert by_handle.histogram("kernel", 0, "lat") is lat


def test_reset_zeroes_in_place_and_bound_handles_keep_counting():
    kstat = KstatRegistry()
    scope = kstat.counters("kernel", 0)
    hist = kstat.histogram("kernel", 0, "lat")
    scope["wakeups"] += 5
    hist.add(9)
    kstat.reset()
    assert kstat.snapshot() == {}
    assert kstat.get("kernel", 0, "wakeups") == 0
    assert kstat.hist("kernel", 0, "lat") is None
    scope["wakeups"] += 1
    hist.add(2)
    assert kstat.get("kernel", 0, "wakeups") == 1
    assert kstat.hist("kernel", 0, "lat").count == 1
    assert kstat.snapshot()["kernel"][0]["lat"]["max"] == 2


def _syscall_free(api, arg):
    yield from api.compute(5_000)
    return 0


def test_syscall_free_run_shows_no_bound_but_untouched_state():
    sim = System(ncpus=4)
    proc = sim.spawn(_syscall_free)
    sim.run()
    assert sim.stats["syscalls"] == 0
    kstat = sim.kstat
    # the trampoline's syscall_cycles histogram is bound but never fed
    assert kstat.hist("kernel", 0, "syscall_cycles") is None
    assert "syscall_cycles" not in kstat.snapshot()["kernel"][0]
    assert "syscall_cycles" not in sim.report()
    # the dispatcher fed runq_wait, so the latency table still has a row
    assert "runq_wait" in sim.report()
    # the proc's scope is bound at creation, but it never counted anything
    assert proc.ks == {}
    assert kstat.scopes("proc") == [] and kstat.scopes("group") == []


def test_lockstat_contention_accounting_and_top():
    locks = LockStatRegistry()
    stat = locks.get("a")
    assert locks.get("a") is stat
    stat.record_acquire(0, False)
    stat.record_acquire(120, True)
    stat.record_hold(40)
    other = locks.get("b")
    other.record_acquire(10, True)
    assert stat.acquisitions == 2
    assert stat.contended == 1
    assert stat.wait_cycles == 120
    assert stat.max_wait == 120
    assert stat.hold_cycles == 40
    assert stat.contention_ratio == 0.5
    assert [s.name for s in locks.top(2)] == ["a", "b"]
    assert locks.snapshot()["b"]["wait_cycles"] == 10
    report = locks.report(5)
    assert "LOCK" in report and "a" in report


def test_lockstat_disabled_hands_out_noop_bucket():
    locks = LockStatRegistry(enabled=False)
    stat = locks.get("x")
    stat.record_acquire(1000, True)
    stat.record_hold(1000)
    assert stat.acquisitions == 0
    assert locks.snapshot() == {}


# ----------------------------------------------------------------------
# a share-group workload that contends the shared read lock


def _member(api, ctx):
    index = ctx["claim"].pop()
    base = ctx["base"] + index * ctx["pages"] * PAGE
    for page in range(ctx["pages"]):
        yield from api.store_word(base + page * PAGE, page)
    return 0


def _group_main(api, ctx):
    members, pages = ctx["members"], ctx["pages"]
    ctx["base"] = yield from api.mmap(members * pages * PAGE)
    ctx["claim"] = list(range(members))
    for _ in range(members):
        yield from api.sproc(_member, PR_SALL, ctx)
    # VM updates while the members fault: mmap/munmap take the update
    # lock and munmap additionally shoots the group's TLBs down.
    for _ in range(6):
        scratch = yield from api.mmap(PAGE)
        yield from api.munmap(scratch)
    for _ in range(members):
        yield from api.wait()
    return 0


def _run_group(ncpus=4, members=3, pages=16, metrics_enabled=True, tracer=False):
    sim = System(ncpus=ncpus, metrics_enabled=metrics_enabled)
    attached = Tracer.attach(sim.kernel) if tracer else None
    sim.spawn(_group_main, {"members": members, "pages": pages})
    sim.run()
    return sim, attached


def test_shared_read_lock_contention_with_three_members():
    sim, _ = _run_group(members=3)
    locks = sim.lockstats.snapshot()
    read = locks["shaddr.vm.read"]
    update = locks["shaddr.vm.update"]
    # every member's faults scan under the read lock
    assert read["acquisitions"] >= 3 * 16
    assert update["acquisitions"] >= 12  # 6 mmaps + 6 munmaps
    # faulting members and the updating creator genuinely collide
    assert read["contended"] + update["contended"] >= 1
    assert read["hold_cycles"] > 0 and update["hold_cycles"] > 0
    top_names = [s.name for s in sim.lockstats.top(20)]
    assert "shaddr.vm.read" in top_names


def test_kstat_kernel_proc_and_group_scopes():
    sim, _ = _run_group(members=3)
    kstat = sim.kstat
    assert kstat.get("kernel", 0, "syscalls") > 0
    assert kstat.get("kernel", 0, "groups_created") == 1
    assert kstat.get("kernel", 0, "wakeups") > 0
    # per-process syscall counters by handler name
    assert kstat.get("proc", 1, "syscall.sys_mmap") >= 7
    assert kstat.get("proc", 1, "syscall.sys_sproc") == 3
    # the group scope aggregates its members (sgid 1 = first group)
    assert kstat.get("group", 1, "fault.zero") >= 3 * 16
    assert kstat.get("group", 1, "pages_touched") >= 3 * 16
    # the munmap shootdowns sent IPIs to the other CPUs
    sent = sum(
        kstat.get("cpu", idx, "shootdown_ipis_sent")
        for idx in kstat.scopes("cpu")
    )
    rcvd = sum(
        kstat.get("cpu", idx, "shootdown_ipis_rcvd")
        for idx in kstat.scopes("cpu")
    )
    assert sent == rcvd and sent >= 6 * (4 - 1)


def test_counters_deterministic_across_identical_runs():
    first, _ = _run_group(members=3)
    second, _ = _run_group(members=3)
    assert first.metrics() == second.metrics()


def test_disabled_metrics_do_not_change_the_headline():
    enabled, _ = _run_group(members=3)
    disabled, _ = _run_group(members=3, metrics_enabled=False)
    assert enabled.now == disabled.now
    assert dict(enabled.stats) == dict(disabled.stats)
    assert disabled.kstat.snapshot() == {}
    assert disabled.lockstats.snapshot() == {}
    # the hot paths bumped their handles, which were private sinks
    report = disabled.report()
    assert "COUNTERS (kernel)\n(none)" in report
    assert "LATENCY (cycles)\n(none)" in report


# ----------------------------------------------------------------------
# chrome trace export


def test_chrome_trace_parses_and_has_dispatch_spans_on_two_cpus():
    sim, tracer = _run_group(members=3, tracer=True)
    text = tracer.to_chrome_trace_json()
    doc = json.loads(text)
    events = doc["traceEvents"]
    assert events
    dispatch = [
        e for e in events if e.get("cat") == "dispatch" and e["ph"] == "X"
    ]
    assert dispatch, "dispatch spans must survive the export"
    cpu_rows = {e["tid"] for e in dispatch if e["pid"] == 0}
    assert len(cpu_rows) >= 2, "work must have run on at least two CPUs"
    for span in dispatch:
        assert span["dur"] >= 0
    # syscall spans land on the per-process rows
    syscalls = [e for e in events if e.get("cat") == "syscall"]
    assert any(e["pid"] == 1 for e in syscalls)
    # metadata names the tracks
    metas = [e for e in events if e["ph"] == "M"]
    assert any(e["args"]["name"] == "CPUs" for e in metas)


def test_tracer_events_iterates_a_snapshot():
    sim, tracer = _run_group(members=2, pages=4, tracer=True)
    seen = 0
    for _event in tracer.events():
        # recording mid-iteration must not invalidate the iterator
        tracer.record("synthetic", 99, "added during iteration")
        seen += 1
        if seen > 20:
            break
    assert seen > 0


# ----------------------------------------------------------------------
# the /proc-style report


def test_system_report_shows_groups_counters_and_contention():
    out = {}

    def main(api, ctx):
        yield from _group_main(api, ctx)
        # snapshot host-side while the group still exists
        ctx["report"] = ctx["sim"].report()
        return 0

    sim = System(ncpus=4)
    ctx = {"members": 3, "pages": 16, "sim": sim, "out": out}
    sim.spawn(main, ctx)
    sim.run()
    report = ctx["report"]
    assert "PROCESSES" in report
    assert "SHARE GROUPS" in report
    assert "g1" in report
    assert "syscalls" in report
    assert "LOCKS (top" in report
    # at least one lock row reports a contended acquisition
    assert any(
        stat.contended > 0 for stat in sim.lockstats.all()
    ), "workload must produce lock contention"


def test_metrics_snapshot_is_json_serialisable():
    sim, _ = _run_group(members=2, pages=4)
    text = json.dumps(sim.metrics())
    doc = json.loads(text)
    assert doc["kstat"]["kernel"]["0"]["syscalls"] > 0
    assert doc["cycles"] == sim.now


# ----------------------------------------------------------------------
# histogram percentiles (bucket -> percentile math pinned)


def test_histogram_percentiles_pinned():
    hist = Histogram()
    for value in (0, 1, 2, 3, 8):
        hist.add(value)
    # buckets: {0: 1, 1: 1, 2: 2, 4: 1}, count 5
    # p50 rank 2.5 crosses bucket 2 (range [2,3]) at 0.25 -> 2.25
    assert hist.p50 == pytest.approx(2.25)
    # p99 rank 4.95 crosses bucket 4 (range [8,15]) at 0.95 -> 14.65
    assert hist.p99 == pytest.approx(14.65)
    # the zero bucket is exactly the value 0
    assert hist.percentile(10.0) == 0.0
    payload = hist.as_dict()
    assert payload["p50"] == pytest.approx(2.25)
    assert payload["p95"] == pytest.approx(hist.percentile(95.0))


def test_histogram_percentile_edges():
    hist = Histogram()
    assert hist.p50 == 0.0  # empty
    hist.add(4)  # bucket 3 covers [4, 7]; rank 0.5 of one sample -> 5.5
    assert hist.p50 == pytest.approx(4 + 0.5 * (7 - 4))
    with pytest.raises(ValueError):
        hist.percentile(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(100.5)


def test_latency_section_surfaces_runq_wait_percentiles():
    sim, _ = _run_group(members=3)
    hist = sim.kstat.hist("kernel", 0, "runq_wait")
    assert hist.count > 0
    report = sim.report()
    assert "LATENCY (cycles)" in report
    assert "runq_wait" in report
    assert "P95" in report


# ----------------------------------------------------------------------
# the report snapshot: section order + the armed-layers line


def test_report_sections_appear_in_order():
    sim, _ = _run_group(members=2, pages=4)
    report = sim.report()
    sections = [
        "layers: ",
        "PROCESSES",
        "SHARE GROUPS",
        "CPUS",
        "COUNTERS (kernel)",
        "LATENCY (cycles)",
        "LOCKS (top",
    ]
    positions = [report.find(section) for section in sections]
    assert all(position >= 0 for position in positions), positions
    assert positions == sorted(positions)


def test_layers_line_reflects_armed_layers():
    quiet, _ = _run_group(members=2, pages=4)
    line = [l for l in quiet.report().splitlines() if l.startswith("layers:")][0]
    assert "kstat=on" in line
    assert "lockdep=off" in line
    assert "inject=off" in line
    armed = System(ncpus=2, lockdep=True)
    armed.spawn(_group_main, {"members": 2, "pages": 4})
    armed.run()
    line = [l for l in armed.report().splitlines() if l.startswith("layers:")][0]
    assert "lockdep=on" in line
