"""/proc-style text snapshots of a live system.

Renders the kernel's state the way ``ps``/``pstat``/``/proc`` would:
per-process and per-share-group tables (share mask, refcnt, resident
pages, counter values), the kernel-wide and per-CPU kstat counters, and
the top contended locks.  ``System.report()`` is the one-call entry
point; the individual ``render_*`` functions compose for examples and
benchmarks that only want one table.
"""

from __future__ import annotations


def _table(columns, rows) -> str:
    """Align ``rows`` (lists of strings) under ``columns``."""
    widths = [
        max(len(str(col)), max((len(str(row[i])) for row in rows), default=0))
        for i, col in enumerate(columns)
    ]
    def fmt(cells):
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(columns), "-" * len(fmt(columns))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _resident_private(proc) -> int:
    return sum(p.region.resident_pages() for p in proc.vm.private)


def render_procs(kernel) -> str:
    """One row per process: identity, state, group, counters."""
    kstat = kernel.kstat
    rows = []
    for proc in sorted(kernel.proc_table.all_procs(), key=lambda p: p.pid):
        group = "-"
        if proc.shaddr is not None:
            group = "g%d" % getattr(proc.shaddr, "sgid", 0)
        rows.append([
            proc.pid,
            proc.name[:16],
            proc.state.value,
            group,
            "%#x" % proc.p_shmask if proc.p_shmask else "-",
            proc.syscalls,
            proc.faults,
            kstat.get("proc", proc.pid, "pages_touched"),
            _resident_private(proc),
        ])
    return "PROCESSES\n" + _table(
        ["PID", "NAME", "STATE", "GROUP", "SHMASK",
         "SYSCALLS", "FAULTS", "TOUCHED", "RSS-PRIV"],
        rows,
    )


def render_groups(kernel) -> str:
    """One row per live share group: membership, refcnt, VM lock traffic."""
    seen = {}
    for proc in kernel.proc_table.all_procs():
        if proc.shaddr is not None:
            seen[id(proc.shaddr)] = proc.shaddr
    if not seen:
        return "SHARE GROUPS\n(none)"
    rows = []
    for shaddr in sorted(seen.values(), key=lambda s: getattr(s, "sgid", 0)):
        lock = shaddr.vm_lock
        resident = sum(
            p.region.resident_pages() for p in shaddr.shared_vm.pregions
        )
        rows.append([
            "g%d" % getattr(shaddr, "sgid", 0),
            shaddr.s_refcnt,
            ",".join(str(p.pid) for p in shaddr.members()),
            "yes" if shaddr.gang else "no",
            resident,
            shaddr.syncs,
            lock.read_acquires,
            lock.read_blocks,
            lock.update_acquires,
            lock.update_blocks,
        ])
    return "SHARE GROUPS\n" + _table(
        ["GROUP", "REFCNT", "MEMBERS", "GANG", "RSS-SHARED", "SYNCS",
         "RD-ACQ", "RD-BLK", "UPD-ACQ", "UPD-BLK"],
        rows,
    )


def render_counters(kstat, kind: str = "kernel") -> str:
    """All counters of one scope kind, one block per entity."""
    blocks = []
    for ident in kstat.scopes(kind):
        values = kstat.scope(kind, ident)
        title = kind if kind == "kernel" else "%s %s" % (kind, ident)
        lines = ["[%s]" % title]
        for name in sorted(values):
            lines.append("  %-32s %12s" % (name, "{:,}".format(values[name])))
        blocks.append("\n".join(lines))
    if not blocks:
        return "COUNTERS (%s)\n(none)" % kind
    return "COUNTERS (%s)\n" % kind + "\n".join(blocks)


def render_cpus(kernel) -> str:
    """Per-CPU dispatch/switch/IPI counters, run-queue state, busy cycles."""
    kstat = kernel.kstat
    depths = kernel.sched.queue_depths()
    rows = []
    for cpu in kernel.machine.cpus:
        rows.append([
            "cpu%d" % cpu.idx,
            cpu.dispatches,
            cpu.switches,
            cpu.preemptions,
            depths[cpu.idx],
            kstat.get("cpu", cpu.idx, "runq_steals"),
            kstat.get("cpu", cpu.idx, "shootdown_ipis_sent"),
            kstat.get("cpu", cpu.idx, "shootdown_ipis_rcvd"),
            "{:,}".format(cpu.busy_cycles),
        ])
    return "CPUS\n" + _table(
        ["CPU", "DISPATCHES", "SWITCHES", "PREEMPTS", "RUNQ", "STEALS",
         "IPI-SENT", "IPI-RCVD", "BUSY-CYCLES"],
        rows,
    )


def render_locks(lockstats, n: int = 10) -> str:
    return "LOCKS (top %d by wait cycles)\n%s" % (n, lockstats.report(n))


def render_latency(kstat) -> str:
    """Every kstat histogram as a latency table with percentiles.

    One row per (scope, histogram): sample count, mean, p50/p95/p99 and
    max — the tail-latency view the power-of-two buckets exist for.
    """
    rows = []
    for kind in ("kernel", "cpu", "proc", "group"):
        for ident in kstat.scopes(kind):
            hists = kstat.hists(kind, ident)
            if not hists:
                continue
            scope = kind if kind == "kernel" else "%s %s" % (kind, ident)
            for name in sorted(hists):
                hist = hists[name]
                rows.append([
                    scope,
                    name,
                    "{:,}".format(hist.count),
                    "%.1f" % hist.mean,
                    "%.0f" % hist.p50,
                    "%.0f" % hist.p95,
                    "%.0f" % hist.p99,
                    "{:,}".format(hist.max),
                ])
    if not rows:
        return "LATENCY (cycles)\n(none)"
    return "LATENCY (cycles)\n" + _table(
        ["SCOPE", "HISTOGRAM", "COUNT", "MEAN", "P50", "P95", "P99", "MAX"],
        rows,
    )


def render_layers(system) -> str:
    """One line naming which observability layers are armed.

    Answers "why is this run slow / why is this report empty" from the
    report alone: every layer that can change host behavior (or record
    nothing) states its switch position.
    """
    from repro.obs.lockdep import NULL_LOCKDEP

    machine = system.machine
    kernel = system.kernel
    flags = [
        ("kstat", machine.kstat.enabled),
        ("lockdep", machine.lockdep is not NULL_LOCKDEP),
        ("inject", bool(machine.inject.armed_sites)),
        ("profile", machine.profile.enabled),
        ("trace", kernel.tracer is not None),
    ]
    return "layers: " + "  ".join(
        "%s=%s" % (name, "on" if on else "off") for name, on in flags
    )


def render_system(system, top_locks: int = 10) -> str:
    """The full report: header, processes, groups, CPUs, counters, locks."""
    kernel = system.kernel
    machine = system.machine
    header = (
        "system report @ cycle {:,} — {} CPUs, utilization {:.1%}, "
        "{} live proc(s)".format(
            system.now, machine.ncpus, machine.utilization(),
            kernel.live_procs,
        )
    )
    sections = [
        header,
        render_layers(system),
        render_procs(kernel),
        render_groups(kernel),
        render_cpus(kernel),
        render_counters(kernel.kstat, "kernel"),
        render_latency(kernel.kstat),
        render_locks(machine.lockstats, top_locks),
    ]
    return ("\n\n".join(sections)) + "\n"
