"""Deterministic fault injection: named failpoints in the kernel.

Every kernel allocation or failure-prone step is wrapped in a *site* —
a named point that normally does nothing and costs nothing, but can be
armed with a policy to force the failure the surrounding code claims to
handle.  Because the simulation is deterministic, ``site + policy``
fully reproduces any injected failure: the Nth hit of a site is the
same hit in every run.

A policy is ``nth:N`` (the string the CLI and tests pass around): fire
on exactly the Nth hit of the site (1-based), once.  The sweep arms one
site at a time at chosen hit indices, so no other policy is needed, and
a policy draws on no random source: it cannot move the schedule of the
hits it does not fail.

The registry's disarmed fast path is one attribute test, mirroring
``NULL_LOCKDEP``: with no plan armed and recording off, ``fire()``
returns False without counting anything, so a run with injection
disabled is cycle-identical (and host-state-identical) to a run on a
build without failpoints at all.
"""

from __future__ import annotations

from typing import Dict

#: cycles charged when a ``*.delay`` site fires (lock hold-off injection)
INJECT_DELAY_CYCLES = 400

#: every failpoint site compiled into the kernel: name -> what fails
SITES: Dict[str, str] = {
    "frames.alloc": "physical frame allocator free list empty (MemoryError)",
    "fault.zero": "demand-zero fill during a page fault (ENOMEM / OOM kill)",
    "fault.cow": "copy-on-write break during a page fault (ENOMEM / OOM kill)",
    "fault.grow": "automatic stack growth during a page fault (ENOMEM / OOM kill)",
    "fd.alloc": "descriptor slot allocation (EMFILE)",
    "open.file": "open-file table entry in sys_open (ENFILE)",
    "pipe.alloc": "pipe inode/buffer allocation in sys_pipe (ENFILE)",
    "pipe.read.sleep": "signal arrives before the pipe or socket read sleep (EINTR)",
    "pipe.write.sleep": "signal arrives before the pipe or socket write sleep "
    "(EINTR, or the partial count)",
    "fork.proc": "process table slot in fork (EAGAIN)",
    "fork.uarea": "u-area allocation in fork (ENOMEM)",
    "sproc.shaddr": "shared address block setup in sproc (EAGAIN)",
    "sproc.stack": "child stack carve / VM build in sproc (ENOMEM)",
    "sproc.uarea": "child u-area allocation in sproc (ENOMEM)",
    "sproc.proc": "process table slot in sproc (EAGAIN)",
    "sproc.kstack": "child kernel stack after the child joined the group (ENOMEM)",
    "mmap.region": "address range allocation in mmap (ENOMEM)",
    "unshare.fds": "fd slot copy-out during PR_UNSHARE (ENOMEM)",
    "unshare.aspace": "private address-space allocation for the PR_SADDR detach (ENOMEM)",
    "unshare.pregion": "per-pregion copy-out of the shared image (ENOMEM)",
    "unshare.uarea": "private u-area resource copy during PR_UNSHARE (ENOMEM)",
    "wait.sleep": "signal arrives before the wait() child sleep (EINTR)",
    "sem.sleep": "signal arrives before the semop sleep (EINTR)",
    "usync.sleep": "signal arrives before the uwait sleep (EINTR)",
    "ipc.get": "SysV registry table entry in shmget/semget (ENOSPC)",
    "shmalloc.grow": "shared arena bump growth (MemoryError to the guest)",
    "vmlock.read.delay": "hold-off before taking the group's shared read lock",
    "vmlock.update.delay": "hold-off before taking the group's update lock",
    "syscall.entry": "SIGKILL delivered at the syscall entry boundary",
    "syscall.exit": "SIGKILL delivered at the syscall exit boundary",
}


class FailPlan:
    """One armed site: an ``nth:N`` policy firing on the Nth hit, once."""

    __slots__ = ("site", "policy", "n", "_spent")

    def __init__(self, site: str, policy: str):
        if site not in SITES:
            raise ValueError(
                "unknown failpoint site %r (have: %s)"
                % (site, ", ".join(sorted(SITES)))
            )
        self.site = site
        self.policy = policy
        self._spent = False
        kind, _, count = policy.partition(":")
        if kind != "nth" or not count.isdecimal() or int(count) < 1:
            raise ValueError("bad failpoint policy %r (want nth:N)" % policy)
        self.n = int(count)

    def decide(self, hit_no: int) -> bool:
        """Should the ``hit_no``-th hit (1-based) of this site fire?"""
        if self._spent or hit_no != self.n:
            return False
        self._spent = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<FailPlan %s %s>" % (self.site, self.policy)


class FailPointRegistry:
    """Per-machine registry of armed failpoints and their hit counts.

    The kernel (and the few leaf objects it hands the registry to)
    calls :meth:`fire` at each site; the returned bool is the injection
    decision.  ``hits``/``fired`` are host-side counters; the
    ``inject_fired`` kstat (plus one per-site counter under the
    ``inject`` kind) is the in-simulation observable.
    """

    __slots__ = (
        "_plans", "hits", "fired", "_kstat", "armed", "_recording",
    )

    def __init__(self, kstat=None):
        self._plans: Dict[str, FailPlan] = {}
        self.hits: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}
        self._kstat = kstat
        #: any plan armed or recording on: hot sites test this inline
        #: before calling :meth:`fire`
        self.armed = False
        self._recording = False

    # ------------------------------------------------------------------

    def arm(self, site: str, policy: str) -> FailPlan:
        """Arm ``site`` with a policy string; replaces any earlier plan."""
        plan = FailPlan(site, policy)
        self._plans[site] = plan
        self.armed = True
        return plan

    def arm_many(self, plans: Dict[str, str]) -> None:
        for site, policy in plans.items():
            self.arm(site, policy)

    def start_recording(self) -> None:
        """Count hits at every site without firing anything.

        Used by the sweep's baseline pass to learn which sites a
        scenario reaches (and how often) before choosing hit indices.
        """
        self._recording = True
        self.armed = True

    @property
    def armed_sites(self) -> Dict[str, str]:
        return {site: plan.policy for site, plan in self._plans.items()}

    # ------------------------------------------------------------------

    def fire(self, site: str) -> bool:
        """Record a hit at ``site``; True when the armed policy fires."""
        if not self.armed:
            # The disarmed case counts nothing.  (The syscall trampoline
            # tests ``armed`` itself and skips the call.)
            return False
        hit_no = self.hits.get(site, 0) + 1
        self.hits[site] = hit_no
        plan = self._plans.get(site)
        if plan is None or not plan.decide(hit_no):
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        if self._kstat is not None:
            self._kstat.add("kernel", 0, "inject_fired")
            self._kstat.add("inject", 0, site)
        return True

    def total_fired(self) -> int:
        return sum(self.fired.values())
