"""Workloads the schedule explorer and the fault-injection sweep drive.

Each scenario is a small guest program chosen to stress one of the
paper's sharing protocols hard enough that a reordered schedule would
expose a protocol bug — yet written so its *final* state is schedule
independent.  The explorer runs a scenario many times under different
seeded perturbations and demands the fingerprint (the ``out`` dict, the
invariant pack, frame accounting) never changes.

``racy-counter`` is the deliberate exception: a textbook lost-update
race whose final count depends on the interleaving.  It is excluded
from :data:`DEFAULT_SCENARIOS` and exists so tests can prove the
explorer actually detects divergence.  The sweep drives every scenario,
this one included: it compares no fingerprints, it audits leaks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import EINTR
from repro.fs.file import O_CREAT, O_RDWR
from repro.ipc.sysv_shm import IPC_CREAT, IPC_PRIVATE
from repro.kernel.signals import SIGUSR1
from repro.mem.frames import PAGE_SIZE
from repro.mem.layout import DATA_BASE
from repro.share.mask import (
    PR_SADDR,
    PR_SALL,
    PR_SDIR,
    PR_SFDS,
    PR_SID,
    PR_SULIMIT,
    PR_SUMASK,
)
from repro.share.prctl import PR_SETSHMASK, PR_UNSHARE
from repro.system import System


class Scenario:
    """A named guest workload bootable under any seed/perturbation."""

    def __init__(self, name: str, main: Callable, ncpus: int, description: str):
        self.name = name
        self.main = main
        self.ncpus = ncpus
        self.description = description

    def boot(
        self,
        seed: Optional[int] = None,
        features: Optional[Iterable[str]] = None,
        inject: Optional[Dict[str, str]] = None,
        record: bool = False,
    ) -> Tuple[dict, System]:
        """Build a fresh system with lockdep on and spawn the workload;
        returns ``(out, sim)`` for the caller to run.

        ``inject`` arms failpoints (site -> policy); ``record`` counts
        failpoint hits without firing any (the sweep's discovery pass).
        """
        out: dict = {}
        sim = System(
            ncpus=self.ncpus,
            lockdep=True,
            perturb_seed=seed,
            perturb_features=features,
            inject=inject,
        )
        if record:
            sim.machine.inject.start_recording()
        sim.spawn(self.main, out, name=self.name)
        return out, sim

    def run(
        self,
        seed: Optional[int] = None,
        features: Optional[Iterable[str]] = None,
        inject: Optional[Dict[str, str]] = None,
        record: bool = False,
    ) -> Tuple[dict, System]:
        """Boot and run to completion; raises what the run raises."""
        out, sim = self.boot(seed, features, inject, record)
        sim.run()
        return out, sim


# ----------------------------------------------------------------------
# fault-storm: concurrent scans of one shared region (section 6.2)

_FS_PAGES = 12
_FS_PROCS = 4


def _fault_storm_member(api, arg):
    base, acc = arg
    for index in range(_FS_PAGES):
        vaddr = base + index * PAGE_SIZE
        value = yield from api.load_word(vaddr)
        yield from api.store_word(vaddr, value)  # idempotent dirtying
        yield from api.fetch_add(acc, value)
        if index % 4 == 3:
            yield from api.yield_cpu()
    return 0


def _fault_storm_main(api, out):
    # Failure-only branches (base == -1, started < N) keep the scenario
    # usable under fault injection; an unperturbed run never takes them.
    base = yield from api.mmap((_FS_PAGES + 1) * PAGE_SIZE)
    if base == -1:
        return 1
    acc = base + _FS_PAGES * PAGE_SIZE
    for index in range(_FS_PAGES):
        yield from api.store_word(base + index * PAGE_SIZE, index + 1)
    started = 0
    for _ in range(_FS_PROCS):
        pid = yield from api.sproc(_fault_storm_member, PR_SALL, (base, acc))
        if pid != -1:
            started += 1
    for _ in range(started):
        yield from api.wait()
    out["acc"] = yield from api.load_word(acc)
    out["expected"] = _FS_PROCS * sum(range(1, _FS_PAGES + 1))
    return 0


# ----------------------------------------------------------------------
# fd-churn: descriptor updates through s_fupdsema (section 6.3)

_FD_MESSAGES = 8
_FD_MSG = b"8 bytes."


def _fd_reader(api, arg):
    # Reads an exact byte count rather than waiting for EOF: a member
    # asleep in read() cannot resync its descriptor table, so it would
    # itself keep the write end referenced and the EOF pending.
    out, rfd = arg
    expected = _FD_MESSAGES * len(_FD_MSG)
    total = 0
    while total < expected:
        chunk = yield from api.read(rfd, 16)
        if chunk == -1:
            continue  # EINTR under injection: retry
        if not chunk:
            break  # EOF: every writer is gone
        total += len(chunk)
    yield from api.close(rfd)
    out["bytes"] = total
    return 0


def _fd_writer(api, arg):
    wfd = arg
    for _ in range(_FD_MESSAGES):
        yield from api.write(wfd, _FD_MSG)
        yield from api.yield_cpu()
    yield from api.close(wfd)
    return 0


def _fd_churner(api, arg):
    index = arg
    for round_no in range(6):
        fd = yield from api.open(
            "/churn-%d-%d" % (index, round_no), O_RDWR | O_CREAT
        )
        dup = yield from api.dup(fd)
        yield from api.write(dup, b"x")
        yield from api.close(dup)
        yield from api.close(fd)
    return 0


def _fd_churn_main(api, out):
    fds = yield from api.pipe()
    if fds == -1:
        return 1
    rfd, wfd = fds
    started = 0
    for entry, arg in (
        (_fd_reader, (out, rfd)),
        (_fd_writer, wfd),
        (_fd_churner, 0),
        (_fd_churner, 1),
    ):
        pid = yield from api.sproc(entry, PR_SALL, arg)
        if pid != -1:
            started += 1
    if started < 4:
        # Some member never ran: feed the reader its full byte count
        # ourselves so an error-site injection cannot strand it.
        yield from api.write(wfd, _FD_MSG * _FD_MESSAGES)
    for _ in range(started):
        yield from api.wait()
    out["expected"] = _FD_MESSAGES * len(_FD_MSG)
    return 0


# ----------------------------------------------------------------------
# mmap-churn: shared pregion list updates + TLB shootdowns (section 6.2)

_MC_PROCS = 3
_MC_ROUNDS = 4


def _mmap_churner(api, arg):
    out, index = arg
    total = 0
    for round_no in range(_MC_ROUNDS):
        base = yield from api.mmap(2 * PAGE_SIZE)
        if base == -1:
            continue  # injection refused the mapping: skip the round
        yield from api.store_word(base, index * 1000 + round_no)
        yield from api.store_word(base + PAGE_SIZE, round_no)
        total += yield from api.load_word(base)
        total += yield from api.load_word(base + PAGE_SIZE)
        yield from api.munmap(base)
        yield from api.yield_cpu()
    out["member-%d" % index] = total
    return 0


def _mmap_faulter(api, arg):
    out, base, npages = arg
    total = 0
    for _round in range(3):
        for index in range(npages):
            total += yield from api.load_word(base + index * PAGE_SIZE)
        yield from api.yield_cpu()
    out["faulter"] = total
    return 0


def _mmap_churn_main(api, out):
    npages = 6
    base = yield from api.mmap(npages * PAGE_SIZE)
    if base == -1:
        return 1
    for index in range(npages):
        yield from api.store_word(base + index * PAGE_SIZE, 10 + index)
    started = 0
    for index in range(_MC_PROCS):
        pid = yield from api.sproc(_mmap_churner, PR_SALL, (out, index))
        if pid != -1:
            started += 1
    pid = yield from api.sproc(_mmap_faulter, PR_SALL, (out, base, npages))
    if pid != -1:
        started += 1
    for _ in range(started):
        yield from api.wait()
    return 0


# ----------------------------------------------------------------------
# unshare-churn: members race transactional unshare against faults,
# fd churn, and member exit (the dynamic sharing lifecycle)

_UC_SLOTS = 4
_UC_CONST = 4


def _uc_lifecycle(api, arg):
    """Full lifecycle: share everything, then peel resources off in
    stages — fds+misc first, then the address space, then the rest
    (departing the group) — churning between stages."""
    out, base, index = arg
    slot = base + index * PAGE_SIZE
    yield from api.store_word(slot, 100 + index)
    fd = yield from api.open("/uc-%d" % index, O_RDWR | O_CREAT)
    if fd != -1:
        yield from api.write(fd, b"shared")
    yield from api.prctl(PR_UNSHARE, PR_SFDS | PR_SUMASK | PR_SULIMIT)
    if fd != -1:
        yield from api.close(fd)  # private close after the fd detach
    priv = yield from api.open("/uc-priv-%d" % index, O_RDWR | O_CREAT)
    if priv != -1:
        yield from api.write(priv, b"private")
        yield from api.close(priv)
    yield from api.store_word(slot, 200 + index)  # still PR_SADDR-shared
    yield from api.prctl(PR_UNSHARE, PR_SADDR)
    yield from api.store_word(slot, 900 + index)  # private COW break
    out["lifecycle-%d" % index] = yield from api.load_word(slot)
    yield from api.prctl(PR_UNSHARE, PR_SDIR | PR_SID)  # mask -> 0: departs
    return 0


def _uc_tightener(api, arg):
    """PR_SETSHMASK down to VM+cwd only, then private fd traffic."""
    out, base, index = arg
    slot = base + index * PAGE_SIZE
    yield from api.store_word(slot, 300 + index)
    yield from api.prctl(PR_SETSHMASK, PR_SADDR | PR_SDIR)
    fd = yield from api.open("/uc-tight", O_RDWR | O_CREAT)
    if fd != -1:
        yield from api.close(fd)
    out["tightener"] = yield from api.load_word(slot)
    return 0


def _uc_exiter(api, arg):
    """Exits immediately: races the others' copy-outs against departure."""
    base, index = arg
    yield from api.store_word(base + index * PAGE_SIZE, 400 + index)
    return 0


def _uc_faulter(api, arg):
    """Rescans constant shared pages while the others detach around it."""
    out, base = arg
    total = 0
    for _round in range(3):
        for page in range(_UC_SLOTS, _UC_SLOTS + _UC_CONST):
            total += yield from api.load_word(base + page * PAGE_SIZE)
        yield from api.yield_cpu()
    out["faulter"] = total
    return 0


def _unshare_churn_main(api, out):
    base = yield from api.mmap((_UC_SLOTS + _UC_CONST) * PAGE_SIZE)
    if base == -1:
        return 1
    for page in range(_UC_CONST):
        yield from api.store_word(
            base + (_UC_SLOTS + page) * PAGE_SIZE, 7 + page
        )
    started = 0
    for entry, arg in (
        (_uc_lifecycle, (out, base, 0)),
        (_uc_lifecycle, (out, base, 1)),
        (_uc_tightener, (out, base, 2)),
        (_uc_exiter, (base, 3)),
        (_uc_faulter, (out, base)),
    ):
        pid = yield from api.sproc(entry, PR_SALL, arg)
        if pid != -1:
            started += 1
    for _ in range(started):
        yield from api.wait()
    # The shared side of every slot: lifecycle members' last *shared*
    # store wins (their 900+i store hit a private clone).
    out["shared-0"] = yield from api.load_word(base)
    out["shared-1"] = yield from api.load_word(base + PAGE_SIZE)
    out["shared-2"] = yield from api.load_word(base + 2 * PAGE_SIZE)
    out["exiter"] = yield from api.load_word(base + 3 * PAGE_SIZE)
    return 0


# ----------------------------------------------------------------------
# member-fork: fork() from plain PR_SALL members — a fork child copies
# exactly what its parent sees, and its copy-on-write breaks reach
# neither the parent nor the group (sections 5.1 and 6.2)

_MF_MEMBERS = 3
_MF_GROUP_VALUE = 7


def _mf_page(index):
    """Member ``index``'s own page of the shared data segment."""
    return DATA_BASE + (index + 1) * PAGE_SIZE


def _mf_child(api, arg):
    """Fork child: read the group's word and the parent's page, then
    COW-break the page."""
    out, index = arg
    page = _mf_page(index)
    out["child-group-%d" % index] = yield from api.load_word(DATA_BASE)
    out["child-read-%d" % index] = yield from api.load_word(page)
    yield from api.store_word(page, 500 + index)
    out["child-wrote-%d" % index] = yield from api.load_word(page)
    return 0


def _mf_member(api, arg):
    out, counter, index = arg
    yield from api.store_word(_mf_page(index), 100 + index)
    pid = yield from api.fork(_mf_child, (out, index))
    if pid != -1:
        yield from api.wait()
    out["member-%d" % index] = yield from api.load_word(_mf_page(index))
    yield from api.fetch_add(counter, 1)
    return 0


def _member_fork_main(api, out):
    counter = yield from api.mmap(PAGE_SIZE)
    if counter == -1:
        return 1
    yield from api.store_word(DATA_BASE, _MF_GROUP_VALUE)
    started = 0
    for index in range(_MF_MEMBERS):
        pid = yield from api.sproc(_mf_member, PR_SALL, (out, counter, index))
        if pid != -1:
            started += 1
    for _ in range(started):
        yield from api.wait()
    out["group"] = yield from api.load_word(DATA_BASE)
    out["members"] = yield from api.load_word(counter)
    return 0


# ----------------------------------------------------------------------
# eintr-relay: members sleep in every wait-queue call (pipe read, socket
# recv, semop, uwait); the peer posts each a handled signal and at once
# pays its wakeup, so the interrupted sleeper must hand the paid unit
# back (the kernel-mediated sleeps section 3 weighs against spinning)

_ER_ROUNDS = 6


def _er_handler(api, sig):
    return
    yield  # pragma: no cover - marks this as a generator


def _er_wake(api, word, round_no):
    yield from api.store_word(word, round_no + 1)
    yield from api.uwake(word, 1)


#: kind -> (set-up returning the member's and the peer's handle, or
#: one handle for both; the member's blocking call; the peer's payment)
_ER_CALLS = {
    "pipe": (lambda api: api.pipe(),
             lambda api, fd, got: api.read(fd, 1),
             lambda api, fd, _round: api.write(fd, b"r")),
    "socket": (lambda api: api.socketpair(),
               lambda api, fd, got: api.recv(fd, 1),
               lambda api, fd, _round: api.send(fd, b"r")),
    "semop": (lambda api: api.semget(IPC_PRIVATE, 1, IPC_CREAT),
              lambda api, semid, got: api.semop(semid, [(0, -1)]),
              lambda api, semid, _round: api.semop(semid, [(0, 1)])),
    "uwait": (lambda api: api.mmap(PAGE_SIZE),
              lambda api, word, got: api.uwait(word, got),
              _er_wake),
}


def _er_member(api, arg):
    """Take ``_ER_ROUNDS`` units through one blocking call, retrying
    each call a signal cut short."""
    out, kind, handle = arg
    got = 0
    while got < _ER_ROUNDS:
        rc = yield from _ER_CALLS[kind][1](api, handle, got)
        if rc == -1:
            if (yield from api.errno()) != EINTR:
                break  # failure-only: this call cannot succeed
        elif rc == b"":
            break  # failure-only: EOF, the peer is gone
        elif kind == "uwait":
            got = yield from api.load_word(handle)
        else:
            got += 1
    out[kind] = got
    return 0


def _eintr_relay_main(api, out):
    yield from api.signal(SIGUSR1, _er_handler)  # the members inherit it
    members = {}  # kind -> (the member's pid, the peer's handle)
    for kind, calls in _ER_CALLS.items():
        handles = yield from calls[0](api)
        if handles == -1:
            continue  # failure-only: no such object to wait on
        if not isinstance(handles, tuple):
            handles = (handles, handles)
        pid = yield from api.sproc(_er_member, PR_SALL, (out, kind, handles[0]))
        if pid != -1:
            members[kind] = (pid, handles[1])
    for round_no in range(_ER_ROUNDS):
        yield from api.yield_cpu()  # the members go back to sleep
        for kind, (pid, handle) in members.items():
            yield from api.kill(pid, SIGUSR1)
            yield from _ER_CALLS[kind][2](api, handle, round_no)
    for _ in range(len(members)):
        yield from api.wait()
    return 0


# ----------------------------------------------------------------------
# racy-counter: a deliberate lost-update race (test fixture)

_RC_PROCS = 4
_RC_ROUNDS = 10


def _racy_member(api, base):
    for _round in range(_RC_ROUNDS):
        value = yield from api.load_word(base)
        yield from api.compute(120)
        yield from api.store_word(base, value + 1)
        yield from api.yield_cpu()
    return 0


def _racy_counter_main(api, out):
    base = yield from api.mmap(PAGE_SIZE)
    if base == -1:
        return 1
    started = 0
    for _ in range(_RC_PROCS):
        pid = yield from api.sproc(_racy_member, PR_SALL, base)
        if pid != -1:
            started += 1
    for _ in range(started):
        yield from api.wait()
    out["count"] = yield from api.load_word(base)
    return 0


# ----------------------------------------------------------------------

SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "fault-storm", _fault_storm_main, 4,
            "%d members scan one shared region under the shared read lock"
            % _FS_PROCS,
        ),
        Scenario(
            "fd-churn", _fd_churn_main, 2,
            "pipe traffic plus open/dup/close churn through s_fupdsema",
        ),
        Scenario(
            "mmap-churn", _mmap_churn_main, 4,
            "members mmap/munmap private windows while a faulter rescans",
        ),
        Scenario(
            "unshare-churn", _unshare_churn_main, 4,
            "members race transactional unshare against faults, fd churn "
            "and member exit",
        ),
        Scenario(
            "member-fork", _member_fork_main, 2,
            "PR_SALL members fork children that read and COW-break "
            "their parent's page of the shared data",
        ),
        Scenario(
            "eintr-relay", _eintr_relay_main, 2,
            "sleepers in pipe read, socket recv, semop and uwait take a "
            "handled signal just before the peer pays their wakeup",
        ),
        Scenario(
            "racy-counter", _racy_counter_main, 2,
            "deliberate lost-update race; final count is schedule-dependent",
        ),
    )
}

#: the scenarios ``python -m repro.check`` explores by default —
#: everything whose final state must be schedule independent
DEFAULT_SCENARIOS = (
    "fault-storm", "fd-churn", "mmap-churn", "unshare-churn", "member-fork",
    "eintr-relay",
)
