"""The seventeen experiments (one per paper table/figure/claim, plus
bonus ablations and the flagship server workload).

Each ``run_eNN`` builds fresh simulated systems, runs a deterministic
workload, and returns an :class:`~repro.bench.harness.ExperimentResult`
whose *claims* encode the paper's qualitative statements.  ``python -m
repro.bench [EID...]`` runs them; ``EXPERIMENTS.md`` indexes them
against the paper text.
"""

from __future__ import annotations

from typing import Optional

from repro.fs.file import O_CREAT, O_RDWR, SEEK_SET
from repro.ipc.sysv_shm import IPC_CREAT, IPC_PRIVATE
from repro.kernel.signals import SIGKILL, SIGUSR1
from repro.mem.frames import PAGE_SIZE
from repro.runtime.aio import AioRing
from repro.runtime.ulocks import UBarrier
from repro.runtime.workqueue import WorkQueue
from repro.share.mask import PR_SADDR, PR_SALL
from repro.share.prctl import PR_SETGANG
from repro.sync.sharedlock import ExclusiveAblationLock
from repro.system import System
from repro.workloads import generators as gen
from repro.workloads.models import MODELS, run_parallel_sum, run_producer_consumer

from repro.bench.harness import ExperimentResult, mean, ratio


def _noop(api, arg):
    return 0
    yield  # pragma: no cover - marks generator


def _run(main, ctx, ncpus=2, seed=None, **system_kwargs):
    # ``seed`` is the sweep's perturbation seed; experiments that need a
    # restricted feature set (E15/E16) pass perturb_seed/perturb_features
    # explicitly, which wins over the default threading here.
    if seed is not None:
        system_kwargs.setdefault("perturb_seed", seed)
    sim = System(ncpus=ncpus, **system_kwargs)
    sim.spawn(main, ctx)
    sim.run()
    return sim


def _touch_data_pages(api, npages):
    """Generator: make ``npages`` of the data segment resident."""
    base = yield from api.sbrk(npages * PAGE_SIZE)
    for page in range(npages):
        yield from api.store_word(base + page * PAGE_SIZE, page)
    return base


# ======================================================================
# E1 — task creation cost (paper section 7 and the Mach 10x claim in
# section 3)
# ======================================================================


def _e01_main(api, ctx):
    out, mech, pages, trials = ctx["out"], ctx["mech"], ctx["pages"], ctx["trials"]
    yield from _touch_data_pages(api, pages)
    if mech.startswith("sproc"):
        yield from api.sproc(_noop, PR_SALL)  # create the group off-clock
        yield from api.wait()
    samples = []
    for _ in range(trials):
        start = api.now
        if mech == "fork":
            yield from api.fork(_noop)
        elif mech == "sproc_shared":
            yield from api.sproc(_noop, PR_SALL)
        elif mech == "sproc_copy":
            yield from api.sproc(_noop, PR_SALL & ~PR_SADDR)
        elif mech == "thread":
            yield from api.thread_create(_noop)
        samples.append(api.now - start)
        if mech == "thread":
            yield from api.thread_join()
        else:
            yield from api.wait()
    out["mean"] = mean(samples)
    return 0


def run_e01(trials: int = 8, seed: Optional[int] = None):
    result = ExperimentResult(
        "E1",
        "task creation cost: fork vs sproc vs Mach-style threads",
        ["mechanism", "resident_pages", "cycles"],
    )
    mechanisms = ("fork", "sproc_copy", "sproc_shared", "thread")
    sizes = (4, 64, 256)
    measured = {}
    for mech in mechanisms:
        for pages in sizes:
            out = {}
            _run(
                _e01_main,
                {"out": out, "mech": mech, "pages": pages, "trials": trials},
                ncpus=2,
                seed=seed,
            )
            measured[(mech, pages)] = out["mean"]
            result.add_row(
                mechanism=mech, resident_pages=pages, cycles=int(out["mean"])
            )
    for pages in sizes:
        result.claim(
            "sproc(PR_SADDR) cheaper than fork at %d pages (paper 7: "
            "'slightly less than a regular fork')" % pages,
            measured[("sproc_shared", pages)] < measured[("fork", pages)],
            "%d vs %d" % (measured[("sproc_shared", pages)], measured[("fork", pages)]),
        )
    result.claim(
        "fork cost grows with resident image size",
        measured[("fork", 256)] > measured[("fork", 4)] * 1.5,
    )
    result.claim(
        "sproc(PR_SADDR) cost is flat in image size",
        measured[("sproc_shared", 256)] < measured[("sproc_shared", 4)] * 1.25,
    )
    fork_thread = ratio(measured[("fork", 256)], measured[("thread", 256)])
    result.claim(
        "threads create ~an order of magnitude faster than fork "
        "(paper 3 quotes Mach at 10x); ratio in [4, 25]",
        4.0 <= fork_thread <= 25.0,
        "ratio %.1f" % fork_thread,
    )
    result.note("creation latency measured caller-side, child reaped between trials")
    return result


# ======================================================================
# E2 — no penalty for normal processes (design goal 4, section 7)
# ======================================================================


def _e02_storm(api, ctx):
    out, count = ctx["out"], ctx["count"]
    start = api.now
    for _ in range(count):
        yield from api.getpid()
    out["per_call"] = (api.now - start) / count
    return 0


def _e02_member_storm(api, ctx):
    out, count = ctx["out"], ctx["count"]
    sleepers = []
    for _ in range(3):
        pid = yield from api.sproc(_sleeper, PR_SALL)
        sleepers.append(pid)
    start = api.now
    for _ in range(count):
        yield from api.getpid()
    out["per_call"] = (api.now - start) / count
    for pid in sleepers:
        yield from api.kill(pid, SIGKILL)
    for _ in sleepers:
        yield from api.wait()
    return 0


def _sleeper(api, arg):
    yield from api.pause()
    return 0


def run_e02(count: int = 300, seed: Optional[int] = None):
    result = ExperimentResult(
        "E2",
        "syscall overhead: share-group support costs normal processes nothing",
        ["configuration", "cycles_per_syscall"],
    )
    configs = {}

    out = {}
    _run(_e02_storm, {"out": out, "count": count}, seed=seed,
         share_groups_enabled=False)
    configs["support compiled out"] = out["per_call"]

    out = {}
    _run(_e02_storm, {"out": out, "count": count}, seed=seed)
    configs["support on, normal process"] = out["per_call"]

    out = {}
    _run(_e02_member_storm, {"out": out, "count": count}, seed=seed)
    configs["support on, group member (no pending sync)"] = out["per_call"]

    for name, value in configs.items():
        result.add_row(configuration=name, cycles_per_syscall=round(value, 2))
    baseline = configs["support compiled out"]
    with_support = configs["support on, normal process"]
    member = configs["support on, group member (no pending sync)"]
    result.claim(
        "support adds only the batched flag test for normal processes "
        "(paper 7: 'normal UNIX processes experience no penalty')",
        with_support - baseline <= 5.0,
        "+%.2f cycles/call" % (with_support - baseline),
    )
    result.claim(
        "an idle group membership costs the same single test",
        abs(member - with_support) <= 5.0,
        "member %.2f vs normal %.2f" % (member, with_support),
    )
    return result


# ======================================================================
# E3 — resource update propagation cost vs group size (section 6.3)
# ======================================================================


def _e03_member(api, ctx):
    rfd, results = ctx["rfd"], ctx["results"]
    yield from api.read(rfd, 1)  # sleep until the update storm is over
    start = api.now
    yield from api.getpid()  # pays the sync
    synced = api.now - start
    start = api.now
    yield from api.getpid()  # baseline
    baseline = api.now - start
    results.append((synced, baseline))
    return 0


def _e03_main(api, ctx):
    out, size, opens = ctx["out"], ctx["size"], ctx["opens"]
    results = []
    rfd, wfd = yield from api.pipe()
    for _ in range(size - 1):
        yield from api.sproc(_e03_member, PR_SALL, {"rfd": rfd, "results": results})
    yield from api.compute(50_000)  # let members reach their read()
    samples = []
    for index in range(opens):
        start = api.now
        yield from api.open("/e3-%d" % index, O_RDWR | O_CREAT)
        samples.append(api.now - start)
    yield from api.write(wfd, b"x" * (size - 1))
    for _ in range(size - 1):
        yield from api.wait()
    out["open_cycles"] = mean(samples)
    out["member_sync"] = mean([synced for synced, _ in results])
    out["member_base"] = mean([base for _, base in results])
    return 0


def run_e03(sizes=(2, 4, 8, 16), opens: int = 20, seed: Optional[int] = None):
    result = ExperimentResult(
        "E3",
        "non-VM resource updates: cost at the updater and at the members",
        ["group_size", "open_cycles", "member_entry_sync", "member_entry_base"],
    )
    measured = {}
    for size in sizes:
        out = {}
        _run(_e03_main, {"out": out, "size": size, "opens": opens}, ncpus=4,
             seed=seed)
        measured[size] = out
        result.add_row(
            group_size=size,
            open_cycles=int(out["open_cycles"]),
            member_entry_sync=int(out["member_sync"]),
            member_entry_base=int(out["member_base"]),
        )
    small, large = measured[sizes[0]], measured[sizes[-1]]
    result.claim(
        "flagging every member makes the updater's cost grow with group size",
        large["open_cycles"] > small["open_cycles"],
        "%d -> %d cycles/open" % (small["open_cycles"], large["open_cycles"]),
    )
    result.claim(
        "a member pays a bounded re-sync at its next kernel entry, "
        "independent of group size",
        large["member_sync"] < small["member_sync"] * 1.5 + 50,
        "%d vs %d" % (small["member_sync"], large["member_sync"]),
    )
    result.claim(
        "after the sync the member's entries are back to baseline",
        all(m["member_base"] < m["member_sync"] for m in measured.values()),
    )
    return result


# ======================================================================
# E4 — the shared read lock lets faults scale (section 6.2)
# ======================================================================


def _e04_faulter(api, ctx):
    base, npages, index = ctx["base"], ctx["npages"], ctx["index"]
    gate = ctx["gate"]
    while (yield from api.load_word(gate)) == 0:
        yield from api.yield_cpu()
    for page in range(npages):
        yield from api.store_word(base + (index * npages + page) * PAGE_SIZE, 1)
    return 0


def _e04_main(api, ctx):
    out, nprocs, npages = ctx["out"], ctx["nprocs"], ctx["npages"]
    gate = yield from api.mmap(PAGE_SIZE)
    base = yield from api.mmap(nprocs * npages * PAGE_SIZE)
    # Create everybody first: continuous scanning starves update-lock
    # takers (sproc carves each child's stack under the update lock), a
    # property of the paper's reader-preference lock worth keeping out
    # of the fault-phase measurement.
    for index in range(nprocs):
        yield from api.sproc(
            _e04_faulter,
            PR_SALL,
            {"base": base, "npages": npages, "index": index, "gate": gate},
        )
    start = api.now
    yield from api.store_word(gate, 1)
    for _ in range(nprocs):
        yield from api.wait()
    out["cycles"] = api.now - start
    return 0


def run_e04(npages: int = 48, nprocs_list=(1, 2, 4, 8),
            seed: Optional[int] = None):
    result = ExperimentResult(
        "E4",
        "concurrent page faults: shared read lock vs exclusive-lock ablation",
        ["faulting_members", "shared_lock_cycles", "exclusive_lock_cycles", "slowdown"],
    )
    measured = {}
    for nprocs in nprocs_list:
        row = {}
        for label, factory in (
            ("shared", None),
            ("exclusive", ExclusiveAblationLock),
        ):
            out = {}
            kwargs = {"vm_lock_factory": factory} if factory else {}
            _run(
                _e04_main,
                {"out": out, "nprocs": nprocs, "npages": npages},
                ncpus=8,
                seed=seed,
                **kwargs,
            )
            row[label] = out["cycles"]
        measured[nprocs] = row
        result.add_row(
            faulting_members=nprocs,
            shared_lock_cycles=row["shared"],
            exclusive_lock_cycles=row["exclusive"],
            slowdown=round(ratio(row["exclusive"], row["shared"]), 2),
        )
    result.claim(
        "with one faulter the locks are equivalent",
        ratio(measured[1]["exclusive"], measured[1]["shared"]) < 1.15,
    )
    big = nprocs_list[-1]
    result.claim(
        "at %d concurrent faulters the exclusive ablation is >1.5x slower "
        "(the shared read lock is what lets scans proceed in parallel)" % big,
        ratio(measured[big]["exclusive"], measured[big]["shared"]) > 1.5,
        "slowdown %.2f" % ratio(measured[big]["exclusive"], measured[big]["shared"]),
    )
    result.claim(
        "shared-lock fault throughput scales: 8 members take <2.5x the "
        "1-member wall clock for 8x the faults",
        measured[big]["shared"] < measured[1]["shared"] * 2.5,
    )
    return result


# ======================================================================
# E5 — VM sync is free except shrink/detach (sections 6.2, 7)
# ======================================================================


def _e05_main(api, ctx):
    out, ops = ctx["out"], ctx["ops"]
    for _ in range(3):
        yield from api.sproc(_sleeper, PR_SALL)
    mmap_samples, grow_samples, unmap_samples = [], [], []
    bases = []
    for _ in range(ops):
        start = api.now
        base = yield from api.mmap(8 * PAGE_SIZE)
        mmap_samples.append(api.now - start)
        bases.append(base)
    for _ in range(ops):
        start = api.now
        yield from api.sbrk(2 * PAGE_SIZE)
        grow_samples.append(api.now - start)
    for base in bases:
        start = api.now
        yield from api.munmap(base)
        unmap_samples.append(api.now - start)
    out["mmap"] = mean(mmap_samples)
    out["grow"] = mean(grow_samples)
    out["munmap"] = mean(unmap_samples)
    for child in list(api.proc.children):
        yield from api.kill(child.pid, SIGKILL)
    for _ in range(3):
        yield from api.wait()
    return 0


def run_e05(ops: int = 10, ncpus_list=(1, 2, 4, 8), seed: Optional[int] = None):
    result = ExperimentResult(
        "E5",
        "VM operations in a share group: only shrink/detach is expensive",
        ["ncpus", "mmap_cycles", "sbrk_grow_cycles", "munmap_cycles", "shootdowns"],
    )
    measured = {}
    for ncpus in ncpus_list:
        out = {}
        sim = _run(_e05_main, {"out": out, "ops": ops}, ncpus=ncpus, seed=seed)
        measured[ncpus] = out
        result.add_row(
            ncpus=ncpus,
            mmap_cycles=int(out["mmap"]),
            sbrk_grow_cycles=int(out["grow"]),
            munmap_cycles=int(out["munmap"]),
            shootdowns=sim.stats["shootdowns"],
        )
    first, last = measured[ncpus_list[0]], measured[ncpus_list[-1]]
    result.claim(
        "growing operations cost the same regardless of CPU count",
        abs(last["grow"] - first["grow"]) < 200 and abs(last["mmap"] - first["mmap"]) < 200,
    )
    result.claim(
        "detach pays the synchronous all-CPU TLB shootdown: cost grows "
        "with the processor count",
        last["munmap"] > first["munmap"] + 1000,
        "%d -> %d cycles" % (first["munmap"], last["munmap"]),
    )
    result.claim(
        "on the big machine, detach is several times dearer than growth "
        "(paper 7: 'negligible except when detaching or shrinking regions')",
        last["munmap"] > 2.0 * last["grow"],
        "munmap %d vs grow %d" % (last["munmap"], last["grow"]),
    )
    return result


# ======================================================================
# E6 — synchronization latency: busy-wait vs kernel mechanisms (sec. 3)
# ======================================================================


def _e6_spin_peer(api, ctx):
    base, rounds = ctx["base"], ctx["rounds"]
    for index in range(1, rounds + 1):
        while (yield from api.load_word(base)) != index:
            pass
        yield from api.store_word(base + 4, index)
    return 0


def _e6_spin_main(api, ctx):
    out, rounds = ctx["out"], ctx["rounds"]
    base = yield from api.mmap(4096)
    yield from api.sproc(_e6_spin_peer, PR_SALL, {"base": base, "rounds": rounds})
    start = api.now
    for index in range(1, rounds + 1):
        yield from api.store_word(base, index)
        while (yield from api.load_word(base + 4)) != index:
            pass
    out["per_round"] = (api.now - start) / rounds
    yield from api.wait()
    return 0


def _e6_sem_peer(api, ctx):
    semid, rounds = ctx["semid"], ctx["rounds"]
    for _ in range(rounds):
        yield from api.semop(semid, [(0, -1)])
        yield from api.semop(semid, [(1, 1)])
    return 0


def _e6_sem_main(api, ctx):
    out, rounds = ctx["out"], ctx["rounds"]
    semid = yield from api.semget(IPC_PRIVATE, 2, IPC_CREAT)
    yield from api.fork(_e6_sem_peer, {"semid": semid, "rounds": rounds})
    start = api.now
    for _ in range(rounds):
        yield from api.semop(semid, [(0, 1)])
        yield from api.semop(semid, [(1, -1)])
    out["per_round"] = (api.now - start) / rounds
    yield from api.wait()
    return 0


def _e6_pipe_peer(api, ctx):
    rfd, wfd, rounds = ctx["peer_rfd"], ctx["peer_wfd"], ctx["rounds"]
    for _ in range(rounds):
        yield from api.read(rfd, 1)
        yield from api.write(wfd, b"B")
    return 0


def _e6_pipe_main(api, ctx):
    out, rounds = ctx["out"], ctx["rounds"]
    down_r, down_w = yield from api.pipe()
    up_r, up_w = yield from api.pipe()
    yield from api.fork(
        _e6_pipe_peer, {"peer_rfd": down_r, "peer_wfd": up_w, "rounds": rounds}
    )
    start = api.now
    for _ in range(rounds):
        yield from api.write(down_w, b"A")
        yield from api.read(up_r, 1)
    out["per_round"] = (api.now - start) / rounds
    yield from api.wait()
    return 0


def _e6_sock_peer(api, ctx):
    fd, rounds = ctx["fd"], ctx["rounds"]
    for _ in range(rounds):
        yield from api.recv(fd, 1)
        yield from api.send(fd, b"B")
    return 0


def _e6_sock_main(api, ctx):
    out, rounds = ctx["out"], ctx["rounds"]
    fd_a, fd_b = yield from api.socketpair()
    yield from api.fork(_e6_sock_peer, {"fd": fd_b, "rounds": rounds})
    start = api.now
    for _ in range(rounds):
        yield from api.send(fd_a, b"A")
        yield from api.recv(fd_a, 1)
    out["per_round"] = (api.now - start) / rounds
    yield from api.wait()
    return 0


def _e6_sig_handler(api, sig):
    return
    yield  # pragma: no cover


def _e6_sig_peer(api, ctx):
    rounds, main_pid = ctx["rounds"], ctx["main_pid"]
    yield from api.signal(SIGUSR1, _e6_sig_handler)
    yield from api.store_word(ctx["ready"], 1)
    for _ in range(rounds):
        yield from api.pause()
        yield from api.kill(main_pid, SIGUSR1)
    return 0


def _e6_sig_main(api, ctx):
    out, rounds = ctx["out"], ctx["rounds"]
    ready = yield from api.mmap(4096)
    yield from api.signal(SIGUSR1, _e6_sig_handler)
    main_pid = yield from api.getpid()
    peer = yield from api.sproc(
        _e6_sig_peer,
        PR_SALL,
        {"rounds": rounds, "main_pid": main_pid, "ready": ready},
    )
    while (yield from api.load_word(ready)) == 0:
        yield from api.yield_cpu()
    start = api.now
    for _ in range(rounds):
        yield from api.kill(peer, SIGUSR1)
        yield from api.pause()
    out["per_round"] = (api.now - start) / rounds
    yield from api.wait()
    return 0


def run_e06(rounds: int = 200, seed: Optional[int] = None):
    result = ExperimentResult(
        "E6",
        "synchronization handoff latency by mechanism",
        ["mechanism", "cycles_per_roundtrip"],
    )
    mains = {
        "user spinlock (share group)": _e6_spin_main,
        "SysV semaphore": _e6_sem_main,
        "pipe": _e6_pipe_main,
        "socket": _e6_sock_main,
        "signal (kill/pause)": _e6_sig_main,
    }
    measured = {}
    for name, main in mains.items():
        out = {}
        _run(main, {"out": out, "rounds": rounds}, ncpus=2, seed=seed)
        measured[name] = out["per_round"]
        result.add_row(mechanism=name, cycles_per_roundtrip=round(out["per_round"], 1))
    spin = measured["user spinlock (share group)"]
    result.claim(
        "busy-waiting approaches memory speed: every kernel mechanism is "
        ">=5x slower (paper 3: 'best performance is obtained using some "
        "form of busy-waiting')",
        all(value >= 5 * spin for name, value in measured.items() if name != "user spinlock (share group)"),
        "spin %.0f vs others %s" % (spin, {k: int(v) for k, v in measured.items()}),
    )
    result.claim(
        "the spinlock roundtrip is within an order of magnitude of raw "
        "memory access cost",
        spin < 600,
        "%.0f cycles" % spin,
    )
    return result


# ======================================================================
# E7 — data-passing bandwidth by mechanism and transfer size (sec. 3)
# ======================================================================


def run_e07(nbytes: int = 64 * 1024, chunks=(64, 256, 1024, 4096, 8192),
            seed: Optional[int] = None):
    result = ExperimentResult(
        "E7",
        "producer->consumer bandwidth (bytes per 1000 cycles)",
        ["chunk"] + list(MODELS),
    )
    measured = {}
    for chunk in chunks:
        row = {"chunk": chunk}
        for model in MODELS:
            metrics = run_producer_consumer(
                model, nbytes=nbytes, chunk=chunk, perturb_seed=seed
            )
            row[model] = metrics["bytes_per_kcycle"]
            measured[(model, chunk)] = metrics["bytes_per_kcycle"]
        result.add_row(**row)
    queueing = ("v7_pipes", "bsd_sockets", "sysv_shm")
    for chunk in chunks:
        if chunk > 4096:
            continue
        best_queueing = max(measured[(model, chunk)] for model in queueing)
        result.claim(
            "shared-VM models beat every queueing model at %dB chunks" % chunk,
            measured[("share_group", chunk)] > best_queueing
            or measured[("mach_threads", chunk)] > best_queueing,
            "share_group %.0f vs best queueing %.0f"
            % (measured[("share_group", chunk)], best_queueing),
        )
    result.note(
        "above 4KB the single-flag ring hands off whole chunks while the "
        "kernel's pipe/socket buffers pipeline sub-chunks, so the curves "
        "converge; the paper's advantage regime is small, frequent "
        "transfers, which is where the gap is largest"
    )
    small = chunks[0]
    advantage = ratio(
        measured[("share_group", small)],
        max(measured[(model, small)] for model in queueing),
    )
    result.claim(
        "at %dB transfers the shared-memory advantage is >=4x "
        "(paper 3: queueing models only suit low-rate, small data)" % small,
        advantage >= 4.0,
        "%.1fx" % advantage,
    )
    return result


# ======================================================================
# E8 — self-scheduling pools beat dynamic task creation (section 3)
# ======================================================================


def _e8_pool_worker(api, qbase):
    queue = yield from WorkQueue.attach(api, qbase)
    while True:
        item = yield from queue.pop(api)
        if item is None:
            return 0
        yield from api.compute(item)


def _e8_task(api, cost):
    yield from api.compute(cost)
    return 0


def _e8_pool_main(api, ctx):
    out, costs, nworkers, mech = ctx["out"], ctx["costs"], ctx["nworkers"], ctx["mech"]
    queue = yield from WorkQueue.create(api, len(costs) + 4)
    start = api.now
    for _ in range(nworkers):
        if mech == "sproc":
            yield from api.sproc(_e8_pool_worker, PR_SALL, queue.base)
        else:
            yield from api.thread_create(_e8_pool_worker, queue.base)
    for cost in costs:
        yield from queue.push(api, cost)
    yield from queue.close(api)
    for _ in range(nworkers):
        if mech == "sproc":
            yield from api.wait()
        else:
            yield from api.thread_join()
    out["cycles"] = api.now - start
    return 0


def _e8_per_task_main(api, ctx):
    out, costs, nworkers, mech = ctx["out"], ctx["costs"], ctx["nworkers"], ctx["mech"]
    if mech == "fork_image":
        yield from _touch_data_pages(api, 128)
    start = api.now
    outstanding = 0
    for cost in costs:
        if outstanding >= nworkers:
            yield from api.wait()
            outstanding -= 1
        if mech == "sproc":
            yield from api.sproc(_e8_task, PR_SALL, cost)
        else:
            yield from api.fork(_e8_task, cost)
        outstanding += 1
    while outstanding:
        yield from api.wait()
        outstanding -= 1
    out["cycles"] = api.now - start
    return 0


def run_e08(ntasks: int = 48, mean_cycles: int = 20_000, ncpus: int = 4,
            seed: Optional[int] = None):
    costs = gen.task_costs(ntasks, mean_cycles)
    serial = sum(costs)
    result = ExperimentResult(
        "E8",
        "self-scheduling pool vs dynamic per-task creation (%d tasks, %d CPUs)"
        % (ntasks, ncpus),
        ["strategy", "makespan_cycles", "speedup_vs_serial"],
    )
    measured = {}

    def record(name, cycles):
        measured[name] = cycles
        result.add_row(
            strategy=name,
            makespan_cycles=cycles,
            speedup_vs_serial=round(serial / cycles, 2),
        )

    for mech, label in (("sproc", "pool of sproc workers"), ("thread", "pool of threads")):
        out = {}
        _run(
            _e8_pool_main,
            {"out": out, "costs": costs, "nworkers": ncpus, "mech": mech},
            ncpus=ncpus,
            seed=seed,
        )
        record(label, out["cycles"])
    for mech, label in (
        ("sproc", "sproc per task"),
        ("fork", "fork per task"),
        ("fork_image", "fork per task (128-page image)"),
    ):
        out = {}
        _run(
            _e8_per_task_main,
            {"out": out, "costs": costs, "nworkers": ncpus, "mech": mech},
            ncpus=ncpus,
            seed=seed,
        )
        record(label, out["cycles"])

    pool = measured["pool of sproc workers"]
    result.claim(
        "the preallocated pool eliminates creation cost: faster than every "
        "per-task strategy (paper 3: 'the speed penalties of process "
        "creation are eliminated by creating a pool of processes')",
        all(pool <= value for name, value in measured.items() if "per task" in name),
    )
    result.claim(
        "a pool of sproc'd processes matches a pool of threads within 10% "
        "(creation speed is irrelevant once tasks are preallocated)",
        measured["pool of sproc workers"] <= measured["pool of threads"] * 1.10,
        "%d vs %d" % (measured["pool of sproc workers"], measured["pool of threads"]),
    )
    result.claim(
        "per-task fork with a big image is the worst strategy",
        measured["fork per task (128-page image)"]
        >= max(v for k, v in measured.items() if k != "fork per task (128-page image)"),
    )
    result.claim(
        "the pool achieves >2.5x speedup on 4 CPUs",
        serial / pool > 2.5,
        "%.2fx" % (serial / pool),
    )
    return result


# ======================================================================
# E9 — user-level asynchronous I/O (the section 4 example)
# ======================================================================


def _e9_sync_main(api, ctx):
    out, nblocks, block, compute = ctx["out"], ctx["nblocks"], ctx["block"], ctx["compute"]
    fd = yield from api.open("/data", O_RDWR | O_CREAT)
    yield from api.write(fd, gen.payload(nblocks * block, 3))
    yield from api.lseek(fd, 0, SEEK_SET)
    start = api.now
    for _ in range(nblocks):
        yield from api.read(fd, block)
        yield from api.compute(compute)
    out["cycles"] = api.now - start
    return 0


def _e9_aio_main(api, ctx):
    out, nblocks, block, compute = ctx["out"], ctx["nblocks"], ctx["block"], ctx["compute"]
    nworkers = ctx["nworkers"]
    fd = yield from api.open("/data", O_RDWR | O_CREAT)
    yield from api.write(fd, gen.payload(nblocks * block, 3))
    ring = yield from AioRing.create(api, nworkers=nworkers)
    buf = yield from api.mmap(nblocks * block + 4096)
    start = api.now
    handles = []
    for index in range(nblocks):
        handle = yield from ring.submit_read(
            api, fd, buf + index * block, block, index * block
        )
        handles.append(handle)
    for _ in range(nblocks):
        yield from api.compute(compute)
    for handle in handles:
        yield from ring.wait(api, handle)
    out["cycles"] = api.now - start
    yield from ring.shutdown(api)
    return 0


def run_e09(nblocks: int = 16, block: int = 4096, compute: int = 15_000,
            seed: Optional[int] = None):
    result = ExperimentResult(
        "E9",
        "asynchronous I/O via PR_SADDR|PR_SFDS workers (section 4 example)",
        ["strategy", "total_cycles", "vs_sync"],
    )
    out = {}
    _run(
        _e9_sync_main,
        {"out": out, "nblocks": nblocks, "block": block, "compute": compute},
        ncpus=4,
        seed=seed,
    )
    sync_cycles = out["cycles"]
    result.add_row(strategy="synchronous read+compute", total_cycles=sync_cycles, vs_sync=1.0)
    measured = {}
    for nworkers in (1, 2, 4):
        out = {}
        _run(
            _e9_aio_main,
            {
                "out": out,
                "nblocks": nblocks,
                "block": block,
                "compute": compute,
                "nworkers": nworkers,
            },
            ncpus=4,
            seed=seed,
        )
        measured[nworkers] = out["cycles"]
        result.add_row(
            strategy="aio ring, %d workers" % nworkers,
            total_cycles=out["cycles"],
            vs_sync=round(out["cycles"] / sync_cycles, 2),
        )
    result.claim(
        "overlapping I/O with compute beats the synchronous loop",
        measured[2] < sync_cycles * 0.8,
        "%.2fx" % (measured[2] / sync_cycles),
    )
    result.claim(
        "more workers help until the disk is saturated",
        measured[2] <= measured[1],
    )
    compute_total = nblocks * compute
    result.claim(
        "with enough workers the run approaches the compute-bound floor",
        measured[4] < compute_total * 1.8,
        "%d vs floor %d" % (measured[4], compute_total),
    )
    return result


# ======================================================================
# E10 — the programming models head to head (Figures 1-4)
# ======================================================================


def run_e10(seed: Optional[int] = None):
    result = ExperimentResult(
        "E10",
        "one application, five programming models (executable Figures 1-4)",
        ["model", "stream_cycles", "parallel_sum_cycles"],
    )
    stream, par = {}, {}
    for model in MODELS:
        stream[model] = run_producer_consumer(
            model, nbytes=32 * 1024, chunk=256, perturb_seed=seed
        )["cycles"]
        par[model] = run_parallel_sum(
            model, nwords=4096, nworkers=4, perturb_seed=seed
        )["cycles"]
        result.add_row(
            model=model,
            stream_cycles=stream[model],
            parallel_sum_cycles=par[model],
        )
    result.claim(
        "the share group beats every queueing model on the fine-grained "
        "stream",
        all(
            stream["share_group"] < stream[model]
            for model in ("v7_pipes", "sysv_shm", "bsd_sockets")
        ),
    )
    result.claim(
        "the share group beats the copy-based models on the parallel sum",
        all(
            par["share_group"] < par[model]
            for model in ("v7_pipes", "bsd_sockets", "sysv_shm")
        ),
    )
    result.claim(
        "share groups stay within 35% of raw threads while keeping full "
        "UNIX process semantics (the paper's bargain)",
        stream["share_group"] <= stream["mach_threads"] * 1.35
        and par["share_group"] <= par["mach_threads"] * 2.5,
        "stream %d vs %d, sum %d vs %d"
        % (
            stream["share_group"],
            stream["mach_threads"],
            par["share_group"],
            par["mach_threads"],
        ),
    )
    return result


# ======================================================================
# E11 — the batched p_flag test (section 6.3 design point)
# ======================================================================


def run_e11(count: int = 300, seed: Optional[int] = None):
    result = ExperimentResult(
        "E11",
        "syscall entry checks: batched flag test vs per-resource tests",
        ["kernel_variant", "cycles_per_syscall"],
    )
    measured = {}
    for batched, label in ((True, "single batched test"), (False, "per-resource tests")):
        out = {}
        _run(
            _e02_member_storm,
            {"out": out, "count": count},
            ncpus=2,
            seed=seed,
            batched_flag_test=batched,
        )
        measured[label] = out["per_call"]
        result.add_row(kernel_variant=label, cycles_per_syscall=round(out["per_call"], 2))
    saved = measured["per-resource tests"] - measured["single batched test"]
    result.claim(
        "batching the sync bits into one test lowers per-syscall overhead "
        "(paper 6.3: 'thus lowering the system call overhead for most "
        "system calls')",
        saved > 20,
        "saves %.1f cycles per syscall" % saved,
    )
    return result


# ======================================================================
# E12 — gang scheduling the group (section 8 extension)
# ======================================================================


def _e12_member(api, ctx):
    barrier = UBarrier(ctx["base"], ctx["nmembers"])
    for _ in range(ctx["rounds"]):
        yield from api.compute(ctx["step"])
        yield from barrier.wait(api)
    return 0


def _e12_hog(api, cycles):
    yield from api.compute(cycles)
    return 0


def _e12_main(api, ctx):
    out = ctx["out"]
    nmembers, rounds, step = ctx["nmembers"], ctx["rounds"], ctx["step"]
    base = yield from api.mmap(4096)
    for _ in range(3):
        yield from api.fork(_e12_hog, 3_000_000)
    member_ctx = {
        "base": base,
        "nmembers": nmembers,
        "rounds": rounds,
        "step": step,
    }
    pids = []
    for _ in range(nmembers):
        pid = yield from api.sproc(_e12_member, PR_SALL, member_ctx)
        pids.append(pid)
    if ctx["gang"]:
        yield from api.prctl(PR_SETGANG, 1)
    start = api.now
    remaining = nmembers + 3
    members_left = set(pids)
    while members_left:
        pid, _status = yield from api.wait()
        members_left.discard(pid)
        remaining -= 1
    out["members_done"] = api.now - start
    for _ in range(remaining):
        yield from api.wait()
    return 0


def run_e12(nmembers: int = 3, rounds: int = 60, step: int = 2000,
            seed: Optional[int] = None):
    result = ExperimentResult(
        "E12",
        "gang scheduling a spin-synchronized group against background load",
        ["gang_mode", "member_phase_cycles", "gang_dispatches"],
    )
    # Like E15, the sweep varies only wakeup/steal orderings here: the
    # "enqueue"/"place" features randomise placement, and gang
    # scheduling's benefit *is* a placement property — perturbing it
    # measures the perturber, not the gang.
    perturb = ("wakeup", "select") if seed is not None else None
    measured = {}
    for gang in (False, True):
        out = {}
        sim = _run(
            _e12_main,
            {
                "out": out,
                "nmembers": nmembers,
                "rounds": rounds,
                "step": step,
                "gang": gang,
            },
            ncpus=4,
            perturb_seed=seed,
            perturb_features=perturb,
        )
        label = "gang" if gang else "independent"
        measured[label] = out["members_done"]
        result.add_row(
            gang_mode=label,
            member_phase_cycles=out["members_done"],
            gang_dispatches=sim.kernel.sched.gang_dispatches,
        )
    result.claim(
        "co-scheduling the group cuts the barrier workload's completion "
        "time under background load (paper 8: the group should run in "
        "parallel or not at all)",
        measured["gang"] < measured["independent"] * 0.8,
        "%d vs %d" % (measured["gang"], measured["independent"]),
    )
    return result


# ======================================================================
# E13 (bonus ablation) — the shared-ASID context-switch economy
# ======================================================================


def _e13_peer(api, ctx):
    rfd, wfd, rounds = ctx["peer_rfd"], ctx["peer_wfd"], ctx["rounds"]
    for _ in range(rounds):
        yield from api.read(rfd, 1)
        yield from api.write(wfd, b"B")
    return 0


def _e13_main(api, ctx):
    out, rounds, related = ctx["out"], ctx["rounds"], ctx["related"]
    down_r, down_w = yield from api.pipe()
    up_r, up_w = yield from api.pipe()
    peer_ctx = {"peer_rfd": down_r, "peer_wfd": up_w, "rounds": rounds}
    if related == "sproc":
        yield from api.sproc(_e13_peer, PR_SALL, peer_ctx)
    else:
        yield from api.fork(_e13_peer, peer_ctx)
    start = api.now
    for _ in range(rounds):
        yield from api.write(down_w, b"A")
        yield from api.read(up_r, 1)
    out["per_round"] = (api.now - start) / rounds
    yield from api.wait()
    return 0


def run_e13(rounds: int = 200, seed: Optional[int] = None):
    """Bonus ablation: group members share one address-space ID, so
    switching between them on a CPU is cheap and keeps the TLB warm —
    the quiet win of section 6.2's single shared image."""
    result = ExperimentResult(
        "E13",
        "context-switch cost between group members vs unrelated processes "
        "(single CPU, pipe ping-pong forces a switch per hop)",
        ["relationship", "cycles_per_roundtrip"],
    )
    measured = {}
    for related, label in (
        ("sproc", "share group members (same ASID)"),
        ("fork", "unrelated processes (own ASIDs)"),
    ):
        out = {}
        _run(
            _e13_main,
            {"out": out, "rounds": rounds, "related": related},
            ncpus=1,
            seed=seed,
        )
        measured[label] = out["per_round"]
        result.add_row(
            relationship=label, cycles_per_roundtrip=round(out["per_round"], 1)
        )
    same = measured["share group members (same ASID)"]
    other = measured["unrelated processes (own ASIDs)"]
    result.claim(
        "switching between members of one share group is cheaper than "
        "between unrelated processes (shared address space => shared "
        "ASID, warm TLB, lighter switch)",
        same < other,
        "%.0f vs %.0f cycles/roundtrip" % (same, other),
    )
    result.claim(
        "the saving is on the order of the context-switch cost "
        "difference (two switches per roundtrip)",
        (other - same) > 800,
        "delta %.0f" % (other - same),
    )
    return result


# ======================================================================
# E14 (bonus ablation) — spin vs spin-then-block under oversubscription
# ======================================================================


def _e14_member(api, ctx):
    base, rounds, hold, kind = ctx["base"], ctx["rounds"], ctx["hold"], ctx["kind"]
    from repro.runtime.hybridlock import HybridLock
    from repro.runtime.ulocks import USpinLock

    if kind == "hybrid":
        lock = HybridLock(base, spins=8)
    elif kind == "spin_yield":
        lock = USpinLock(base)  # yields the CPU after a burst of polls
    else:
        lock = USpinLock(base, spins_before_yield=10**9)  # pure busy-wait
    for _ in range(rounds):
        yield from lock.acquire(api)
        value = yield from api.load_word(base + 8)
        yield from api.compute(hold)
        yield from api.store_word(base + 8, value + 1)
        yield from lock.release(api)
    return 0


def _e14_main(api, ctx):
    out = ctx["out"]
    base = yield from api.mmap(4096)
    member_ctx = {**ctx, "base": base}
    start = api.now
    for _ in range(ctx["nmembers"]):
        yield from api.sproc(_e14_member, PR_SALL, member_ctx)
    for _ in range(ctx["nmembers"]):
        yield from api.wait()
    out["cycles"] = api.now - start
    out["count"] = yield from api.load_word(base + 8)
    return 0


def run_e14(nmembers: int = 6, rounds: int = 40, hold: int = 3_000,
            ncpus: int = 2, seed: Optional[int] = None):
    """Bonus ablation: the paper backs pure busy-waiting (section 3) and
    offers gang scheduling for the oversubscribed case (section 8); the
    usync extension solves the same pathology from the lock side by
    sleeping in the kernel after a brief spin."""
    result = ExperimentResult(
        "E14",
        "lock handoff with %d members on %d CPUs (oversubscribed %gx)"
        % (nmembers, ncpus, nmembers / ncpus),
        ["lock", "total_cycles", "kernel_sleeps"],
    )
    labels = {
        "spin": "pure busy-wait (paper 3, literally)",
        "spin_yield": "spin + sched_yield backoff",
        "hybrid": "spin-then-block (usync ext.)",
    }
    # Oversubscribed lock handoff is acutely placement-sensitive: who
    # shares a CPU with the holder decides how long a yield backoff
    # spins.  The sweep varies wakeup/steal orderings only (E15's rule).
    perturb = ("wakeup", "select") if seed is not None else None
    measured = {}
    for kind in ("spin", "spin_yield", "hybrid"):
        out = {}
        sim = _run(
            _e14_main,
            {
                "out": out,
                "nmembers": nmembers,
                "rounds": rounds,
                "hold": hold,
                "kind": kind,
            },
            ncpus=ncpus,
            perturb_seed=seed,
            perturb_features=perturb,
        )
        assert out["count"] == nmembers * rounds, "lost an increment!"
        measured[kind] = out["cycles"]
        result.add_row(
            lock=labels[kind],
            total_cycles=out["cycles"],
            kernel_sleeps=sim.stats["uwaits"],
        )
    result.claim(
        "when spinners outnumber processors, literal busy-waiting is the "
        "worst strategy (the paper's advice assumes the holder keeps "
        "running)",
        measured["spin"] > measured["spin_yield"]
        and measured["spin"] > measured["hybrid"],
        "pure %d vs yield %d vs hybrid %d"
        % (measured["spin"], measured["spin_yield"], measured["hybrid"]),
    )
    result.claim(
        "giving the CPU away while the holder is descheduled (yield "
        "backoff or kernel sleep) recovers most of the loss",
        measured["hybrid"] < measured["spin"] * 0.7,
        "%.2fx of pure spin" % (measured["hybrid"] / measured["spin"]),
    )
    result.note(
        "with nmembers <= ncpus all three are equivalent: the sleep and "
        "yield paths never trigger and the paper's advice stands as-is"
    )
    return result


# ======================================================================
# E15 (bonus ablation) — per-CPU run queues vs the global run queue
# ======================================================================


def _e15_member(api, ctx):
    rounds, step = ctx["rounds"], ctx["step"]
    for _ in range(rounds):
        yield from api.compute(step)
        yield from api.yield_cpu()
    return 0


def _e15_leader(api, ctx):
    nmembers = ctx["nmembers"]
    for _ in range(nmembers):
        yield from api.sproc(_e15_member, PR_SALL, ctx)
    for _ in range(nmembers):
        yield from api.wait()
    return 0


def _e15_main(api, ctx):
    out, ngroups = ctx["out"], ctx["ngroups"]
    start = api.now
    for _ in range(ngroups):
        yield from api.fork(_e15_leader, ctx)
    for _ in range(ngroups):
        yield from api.wait()
    out["makespan"] = api.now - start
    return 0


def run_e15(
    ngroups: int = 6,
    nmembers: int = 4,
    rounds: int = 10,
    step: int = 8_000,
    ncpus: int = 4,
    seed: Optional[int] = None,
):
    """Bonus ablation: the scheduler hot path itself.  A many-group
    fan-out keeps ~ngroups*nmembers processes cycling through wakeup,
    dispatch and quantum checks.  The global run queue pays O(runnable)
    per decision; the per-CPU queues pay O(ncpus) peeks and place waking
    processes back on the CPU whose cache and (shared-ASID) TLB they
    warmed.  Scheduler bookkeeping is host-side, so the overhead is
    reported as queue entries examined per dispatch decision, and
    turning metrics off must not move a single simulated cycle."""
    result = ExperimentResult(
        "E15",
        "per-CPU run queues vs one global queue, %d groups x %d members "
        "on %d CPUs" % (ngroups, nmembers, ncpus),
        [
            "scheduler",
            "makespan_cycles",
            "scan_per_pick",
            "affinity_hits",
            "migrations",
            "steals",
        ],
    )
    ctx_proto = {
        "ngroups": ngroups,
        "nmembers": nmembers,
        "rounds": rounds,
        "step": step,
    }
    # The seed sweep varies legal schedule orderings, but the "place"
    # and "enqueue" features *bypass* the last_cpu affinity preference —
    # randomised placement would be measuring the perturber, not the
    # scheduler the affinity claim is about.
    perturb = ("wakeup", "select") if seed is not None else None
    measured = {}
    for kind in ("global", "percpu"):
        out = {}
        sim = _run(
            _e15_main, dict(ctx_proto, out=out), ncpus=ncpus, scheduler=kind,
            perturb_seed=seed, perturb_features=perturb,
        )
        sched = sim.kernel.sched
        scan_per_pick = sched.scan_steps / max(sched.picks, 1)
        measured[kind] = {
            "makespan": out["makespan"],
            "scan_per_pick": scan_per_pick,
            "affinity_hits": sched.affinity_hits,
            "migrations": sched.migrations,
            "steals": sched.steals,
        }
        result.add_row(
            scheduler=kind,
            makespan_cycles=out["makespan"],
            scan_per_pick=round(scan_per_pick, 2),
            affinity_hits=sched.affinity_hits,
            migrations=sched.migrations,
            steals=sched.steals,
        )

        # determinism guard: instrumentation off, same simulated history
        quiet_out = {}
        quiet = _run(
            _e15_main,
            dict(ctx_proto, out=quiet_out),
            ncpus=ncpus,
            scheduler=kind,
            metrics_enabled=False,
            perturb_seed=seed,
            perturb_features=perturb,
        )
        measured[kind]["quiet_identical"] = (
            quiet_out["makespan"] == out["makespan"] and quiet.now == sim.now
        )
    gq, pq = measured["global"], measured["percpu"]
    result.claim(
        "per-CPU dispatch overhead is bounded by the CPU count (one "
        "head peek per queue plus the local-preference pass) while the "
        "global scan grows with the runnable population (the point of "
        "the rewrite)",
        pq["scan_per_pick"] <= 2 * ncpus
        and pq["scan_per_pick"] < gq["scan_per_pick"],
        "%.2f vs %.2f entries/pick on %d CPUs"
        % (pq["scan_per_pick"], gq["scan_per_pick"], ncpus),
    )
    result.claim(
        "affinity keeps most dispatches on the process's previous CPU, "
        "so the shared-ASID TLB economy (E13) survives queueing",
        pq["affinity_hits"] > pq["migrations"],
        "%d hits vs %d migrations (%d steals)"
        % (pq["affinity_hits"], pq["migrations"], pq["steals"]),
    )
    result.claim(
        "work stealing keeps the distributed queues work-conserving: "
        "makespan stays within 10% of the global queue's",
        pq["makespan"] <= gq["makespan"] * 1.10,
        "%d vs %d cycles" % (pq["makespan"], gq["makespan"]),
    )
    result.claim(
        "disabling metrics changes no simulated outcome for either "
        "scheduler (instrumentation is host-side only)",
        gq["quiet_identical"] and pq["quiet_identical"],
    )
    return result


# ======================================================================
# E16 (bonus ablation) — the VM translation fast path
# ======================================================================


def _e16_member(api, ctx):
    bases, victim = ctx["bases"], ctx["victim"]
    barrier = UBarrier(ctx["bar_base"], ctx["nmembers"] + 1)
    # Phase A: warm a TLB entry for every mapping.
    for base in bases:
        yield from api.load_word(base)
    yield from barrier.wait(api)
    # Creator unmaps the victim between these barriers.
    yield from barrier.wait(api)
    # Phase B: re-touch everything that should still be warm.
    for base in bases:
        if base != victim:
            yield from api.load_word(base)
    yield from barrier.wait(api)
    return 0


def _e16_churn(api, ctx):
    """An unrelated process whose shrinks exercise per-ASID flushing.

    Runs outside the share group with its own ASID.  Every negative
    sbrk invalidates translations: the linear TLB scans every resident
    entry on every CPU (including the group's warm set), the ASID index
    touches only this process's own handful.
    """
    for _ in range(ctx["churn_rounds"]):
        base = yield from api.sbrk(4 * PAGE_SIZE)
        for page in range(4):
            yield from api.store_word(base + page * PAGE_SIZE, page)
        yield from api.sbrk(-4 * PAGE_SIZE)
        yield from api.compute(2_000)
    return 0


def _e16_main(api, ctx):
    out, nmaps, nmembers = ctx["out"], ctx["nmaps"], ctx["nmembers"]
    bases = []
    for _ in range(nmaps):
        base = yield from api.mmap(PAGE_SIZE)
        yield from api.store_word(base, 1)  # resident before members run
        bases.append(base)
    bar_base = yield from api.mmap(PAGE_SIZE)
    yield from api.store_word(bar_base, 0)
    yield from api.store_word(bar_base + 4, 0)
    ctx["bases"] = bases
    ctx["bar_base"] = bar_base
    ctx["victim"] = victim = bases[nmaps // 2]
    start = api.now
    for _ in range(nmembers):
        yield from api.sproc(_e16_member, PR_SALL, ctx)
    barrier = UBarrier(bar_base, nmembers + 1)
    yield from barrier.wait(api)  # everyone's TLB is warm
    yield from api.munmap(victim)  # range shootdown (full flush if linear)
    out["miss_before"] = ctx["snap"]()
    yield from barrier.wait(api)  # release the re-touch phase
    yield from barrier.wait(api)  # re-touch complete
    out["miss_after"] = ctx["snap"]()
    for _ in range(nmembers):
        yield from api.wait()
    out["makespan"] = api.now - start
    return 0


def run_e16(
    nmembers: int = 4,
    nmaps: int = 24,
    churn_rounds: int = 6,
    ncpus: int = 4,
    seed: Optional[int] = None,
):
    """Bonus ablation: the VM translation hot path itself.  A share group
    with many mappings makes every TLB refill walk the pregion lists; the
    linear scan pays O(n) per fault while the interval index pays
    O(log n) bisect steps (kstat ``pregion_scan_len`` counts both).  The
    unmap of one victim page then contrasts shootdown strategies: the
    targeted range flush drops one translation per CPU, the old full
    per-ASID flush cold-starts every member's working set and triggers a
    refill storm.  All counting is host-side; metrics off must not move
    a single simulated cycle."""
    result = ExperimentResult(
        "E16",
        "VM fast path: indexed pregion lookup + targeted shootdown vs "
        "linear, %d members x %d mappings on %d CPUs"
        % (nmembers, nmaps, ncpus),
        [
            "vm_index",
            "makespan_cycles",
            "scan_per_fault",
            "refill_storm",
            "shootdown_pages",
            "asid_flush_scanned",
            "flush_pages",
        ],
    )
    measured = {}
    for mode in ("linear", "indexed"):
        out = {}
        ctx = {"out": out, "nmaps": nmaps, "nmembers": nmembers}
        sim = System(ncpus=ncpus, vm_index=mode, perturb_seed=seed)
        # Host-side probe: total refills across CPUs, zero-cycle to read.
        ctx["snap"] = lambda sim=sim: sum(
            cpu.tlb.misses for cpu in sim.machine.cpus
        )
        sim.spawn(_e16_main, ctx)
        sim.spawn(_e16_churn, {"churn_rounds": churn_rounds}, name="churn")
        sim.run()
        kernel_ks = sim.kstat.scope("kernel", 0)
        scan_per_fault = kernel_ks.get("pregion_scan_len", 0) / max(
            kernel_ks.get("vm_lookups", 0), 1
        )
        refill_storm = out["miss_after"] - out["miss_before"]
        asid_flush_scanned = sum(
            sim.kstat.get("cpu", cpu.idx, "tlb_asid_flush_scanned")
            for cpu in sim.machine.cpus
        )
        flush_pages = sum(cpu.tlb.flush_pages for cpu in sim.machine.cpus)
        measured[mode] = {
            "makespan": out["makespan"],
            "scan_per_fault": scan_per_fault,
            "refill_storm": refill_storm,
            "shootdown_pages": kernel_ks.get("shootdown_pages", 0),
            "asid_flush_scanned": asid_flush_scanned,
        }
        result.add_row(
            vm_index=mode,
            makespan_cycles=out["makespan"],
            scan_per_fault=round(scan_per_fault, 2),
            refill_storm=refill_storm,
            shootdown_pages=kernel_ks.get("shootdown_pages", 0),
            asid_flush_scanned=asid_flush_scanned,
            flush_pages=flush_pages,
        )

        # determinism guard: instrumentation off, same simulated history
        quiet_out = {}
        quiet_ctx = {"out": quiet_out, "nmaps": nmaps, "nmembers": nmembers}
        quiet = System(
            ncpus=ncpus, vm_index=mode, metrics_enabled=False,
            perturb_seed=seed,
        )
        quiet_ctx["snap"] = lambda sim=quiet: sum(
            cpu.tlb.misses for cpu in sim.machine.cpus
        )
        quiet.spawn(_e16_main, quiet_ctx)
        quiet.spawn(_e16_churn, {"churn_rounds": churn_rounds}, name="churn")
        quiet.run()
        measured[mode]["quiet_identical"] = (
            quiet_out["makespan"] == out["makespan"] and quiet.now == sim.now
        )
    lin, idx = measured["linear"], measured["indexed"]
    # Everything a refill can see: the mappings, the barrier page, one
    # stack per member, and the creator's text/data/stack/PRDA segments.
    visible = nmaps + 1 + nmembers + 4
    bisect_bound = 2 * visible.bit_length() + 4
    result.claim(
        "the interval index resolves a fault in O(log n) bisect steps "
        "while the linear scan grows with the pregion count",
        idx["scan_per_fault"] <= bisect_bound
        and idx["scan_per_fault"] < lin["scan_per_fault"],
        "%.2f vs %.2f entries/fault over ~%d visible pregions (bound %d)"
        % (idx["scan_per_fault"], lin["scan_per_fault"], visible,
           bisect_bound),
    )
    result.claim(
        "a targeted range shootdown leaves unrelated warm entries intact: "
        "the refill storm after the unmap is strictly below the full-ASID "
        "baseline",
        idx["refill_storm"] < lin["refill_storm"],
        "%d vs %d refills after the victim unmap"
        % (idx["refill_storm"], lin["refill_storm"]),
    )
    result.claim(
        "the indexed shootdown invalidates exactly the victim's pages "
        "(the linear ablation has no page-granular shootdowns at all)",
        idx["shootdown_pages"] == 1 and lin["shootdown_pages"] == 0,
        "%d vs %d pages" % (idx["shootdown_pages"], lin["shootdown_pages"]),
    )
    result.claim(
        "per-ASID flushes examine only the victim space's entries under "
        "the index, not the whole TLB (the churn process's shrinks would "
        "otherwise rescan the group's warm set every round)",
        idx["asid_flush_scanned"] < lin["asid_flush_scanned"],
        "%d vs %d entries examined"
        % (idx["asid_flush_scanned"], lin["asid_flush_scanned"]),
    )
    result.claim(
        "fewer refills make the fast path at least as fast end-to-end",
        idx["makespan"] <= lin["makespan"],
        "%d vs %d cycles" % (idx["makespan"], lin["makespan"]),
    )
    result.claim(
        "disabling metrics changes no simulated outcome in either mode "
        "(all new counters are host-side only)",
        lin["quiet_identical"] and idx["quiet_identical"],
    )
    return result


#: E17 arrival-rate sweep: label -> (multiplier of the nominal capacity,
#: full-scale requests, quick-scale requests).  Labels are the row keys
#: of the seed table, the same at either scale.
E17_RATES = [
    ("x0.30", 0.30, 150_000, 6_000),
    ("x0.60", 0.60, 150_000, 6_000),
    ("x0.90", 0.90, 200_000, 8_000),
    ("x1.20", 1.20, 250_000, 8_000),
    ("x1.80", 1.80, 1_050_000, 24_000),
]

#: goodput/offered ratio below which a rate counts as past the knee
E17_KNEE_RATIO = 0.90


def _e17_config(scale: str, label: str, mult: float, nreq_full: int,
                nreq_quick: int):
    from repro.workloads.server import ServerConfig

    if scale == "full":
        nominal = 7.0
        return ServerConfig(
            ngroups=8, nworkers=6, naio=12, batch=128, keyspace=512,
            cache_capacity=448, nshards=8, npages=64,
            nrequests=nreq_full, rate_per_kcycle=nominal * mult,
        ), 8
    nominal = 2.8
    return ServerConfig(
        ngroups=2, nworkers=4, naio=8, batch=64, keyspace=128,
        cache_capacity=112, nshards=4, npages=32,
        nrequests=nreq_quick, rate_per_kcycle=nominal * mult,
    ), 4


def run_e17(scale: str = "full", seed: Optional[int] = None):
    """Flagship multi-tier server workload (E17): an open-loop arrival
    sweep over the three-tier share-group server (generator -> accept
    loop -> worker groups with a shared LRU cache arena and AIO-backed
    disk reads).  Each rate is one end-to-end run; latency is measured
    against the *scheduled* arrival instant, so overload queueing is
    fully visible (no coordinated omission).  The sweep locates the
    saturation knee — the highest rate whose goodput still tracks the
    offered load — and shows the tail-latency blowup and run-queue
    depths past it.  ``scale="quick"`` is the per-PR CI variant; the
    full preset serves >=1M requests at the top arrival rate."""
    from repro.workloads.server import run_server

    result = ExperimentResult(
        "E17",
        "multi-tier server capacity sweep (%s scale): throughput, "
        "tail latency and run-queue depth vs offered load" % scale,
        [
            "rate",
            "offered_per_kcycle",
            "throughput_per_kcycle",
            "goodput_ratio",
            "p50_cycles",
            "p95_cycles",
            "p99_cycles",
            "hit_pct",
            "evictions",
            "shootdown_pages",
            "runq_p95",
            "max_inflight",
            "completed",
        ],
    )
    rows = {}
    for label, mult, nreq_full, nreq_quick in E17_RATES:
        cfg, ncpus = _e17_config(scale, label, mult, nreq_full, nreq_quick)
        out = run_server(cfg, ncpus=ncpus, perturb_seed=seed,
                         system_cls=System)
        sim = out["system"]
        hist = sim.kstat.hist("kernel", 0, "request_latency")
        runq = sim.kstat.hist("kernel", 0, "runq_depth_sample")
        ratio = (out["throughput_per_kcycle"] / out["offered_per_kcycle"]
                 if out["offered_per_kcycle"] else 0.0)
        row = {
            "offered": out["offered_per_kcycle"],
            "tput": out["throughput_per_kcycle"],
            "ratio": ratio,
            "p50": hist.percentile(50) if hist else out["p50"],
            "p95": hist.percentile(95) if hist else out["p95"],
            "p99": hist.percentile(99) if hist else out["p99"],
            "runq_p95": runq.percentile(95) if runq else 0.0,
            "shootdowns": sim.kstat.get("kernel", 0, "shootdown_pages"),
            "evictions": out["evictions"],
            "collapsed": out["collapsed"],
            "verify_failures": out["verify_failures"],
            "completed": out["completed"],
            "nrequests": cfg.nrequests,
            "max_inflight": out["max_inflight"],
        }
        rows[label] = row
        result.add_row(
            rate=label,
            offered_per_kcycle=round(row["offered"], 3),
            throughput_per_kcycle=round(row["tput"], 3),
            goodput_ratio=round(row["ratio"], 3),
            p50_cycles=int(row["p50"]),
            p95_cycles=int(row["p95"]),
            p99_cycles=int(row["p99"]),
            hit_pct=round(out["hit_pct"], 1),
            evictions=row["evictions"],
            shootdown_pages=row["shootdowns"],
            runq_p95=round(row["runq_p95"], 1),
            max_inflight=out["max_inflight"],
            completed=row["completed"],
        )

    labels = [label for label, _, _, _ in E17_RATES]
    low, top = rows[labels[0]], rows[labels[-1]]
    plateau = rows[labels[-2]]
    knee = None
    for label in labels:
        if rows[label]["ratio"] >= E17_KNEE_RATIO:
            knee = label
    result.claim(
        "below the knee the served throughput tracks the offered load",
        low["ratio"] >= E17_KNEE_RATIO,
        "goodput/offered %.3f at %s" % (low["ratio"], labels[0]),
    )
    result.claim(
        "the sweep crosses an identifiable saturation knee",
        knee is not None and knee != labels[-1]
        and top["ratio"] < 0.80,
        "knee at %s; top-rate goodput ratio %.3f" % (knee, top["ratio"]),
    )
    result.claim(
        "past the knee throughput plateaus at capacity instead of "
        "collapsing",
        top["tput"] <= 1.25 * plateau["tput"]
        and top["tput"] >= 0.75 * plateau["tput"],
        "%.2f vs %.2f req/kcycle at %s vs %s"
        % (top["tput"], plateau["tput"], labels[-1], labels[-2]),
    )
    result.claim(
        "overload queueing blows the tail up: p99 latency at the top "
        "rate is several times the below-knee p99",
        top["p99"] >= 3.0 * low["p99"] > 0,
        "p99 %d vs %d cycles" % (int(top["p99"]), int(low["p99"])),
    )
    result.claim(
        "the open-loop backlog deepens under overload (arrivals keep "
        "queueing while service saturates)",
        top["max_inflight"] >= 4 * max(1, low["max_inflight"]),
        "max in-flight %d vs %d" % (top["max_inflight"], low["max_inflight"]),
    )
    if scale == "full":
        result.claim(
            "run queues deepen under overload",
            top["runq_p95"] >= low["runq_p95"] + 2,
            "runq p95 %.1f vs %.1f" % (top["runq_p95"], low["runq_p95"]),
        )
    result.claim(
        "the shared cache stays coherent under eviction/shootdown churn: "
        "every page served verified, with live evictions, shootdowns and "
        "collapsed duplicate misses",
        all(row["verify_failures"] == 0 for row in rows.values())
        and all(row["completed"] == row["nrequests"] for row in rows.values())
        and top["evictions"] > 0 and top["shootdowns"] > 0
        and sum(row["collapsed"] for row in rows.values()) > 0,
        "verify failures %d, evictions %d, shootdown pages %d"
        % (sum(row["verify_failures"] for row in rows.values()),
           top["evictions"], top["shootdowns"]),
    )
    if scale == "full":
        result.claim(
            "the top arrival rate serves at least one million simulated "
            "requests",
            top["completed"] >= 1_000_000,
            "%d requests at %s" % (top["completed"], labels[-1]),
        )

    # determinism guard: kstat off, same simulated history (results come
    # from host-side ServerStats, never from the metrics layer)
    ident_cfg, ident_ncpus = _e17_config("quick", "x0.60", 0.60, 0, 4_000)
    ident_on = run_server(ident_cfg, ncpus=ident_ncpus, perturb_seed=seed,
                          system_cls=System)
    ident_off = run_server(ident_cfg, ncpus=ident_ncpus,
                           metrics_enabled=False, perturb_seed=seed,
                           system_cls=System)
    result.claim(
        "disabling metrics changes no simulated outcome (same final "
        "cycle, same completions, same per-batch latencies)",
        ident_on["sim_now"] == ident_off["sim_now"]
        and ident_on["completed"] == ident_off["completed"]
        and ident_on["stats"].latencies == ident_off["stats"].latencies,
        "sim_now %d vs %d" % (ident_on["sim_now"], ident_off["sim_now"]),
    )
    return result


ALL_EXPERIMENTS = {
    "E1": run_e01,
    "E2": run_e02,
    "E3": run_e03,
    "E4": run_e04,
    "E5": run_e05,
    "E6": run_e06,
    "E7": run_e07,
    "E8": run_e08,
    "E9": run_e09,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E14": run_e14,
    "E15": run_e15,
    "E16": run_e16,
    "E17": run_e17,
}
