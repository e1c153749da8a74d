"""Lock dependency checking: a deterministic lockdep for the simulated kernel.

The paper (section 6) spends most of its ink on lock ordering — which of
``s_acclck``, ``s_listlock``, ``s_rupdlock`` and ``s_fupdsema`` may be
taken inside which, and why nothing may sleep while spinning others out.
This module makes those rules *checkable*: every named synchronization
primitive reports its acquires and releases into one per-machine
dependency graph, and four classes of misuse raise a structured
:class:`LockOrderViolation` the moment they happen:

* **order inversion** — some context once acquired class B while holding
  class A, and now a context acquires A while holding B (the ABBA
  deadlock shape, caught even when the runs never actually interleave);
* **sleep-holding-spinlock** — a context blocks on a sleeping primitive
  with a kernel spin lock held (would spin every other CPU out forever);
* **double acquire** — a context re-acquires an exclusive lock instance
  it already holds (self-deadlock);
* **release-by-non-owner** — a context releases a lock instance it does
  not hold (including release-without-acquire).

Edges are keyed by lock *class*, not instance: the class is the lock's
name with any per-object suffix stripped (``wait:12`` → ``wait``,
``urw@0x40021000`` → ``urw``, trailing digits dropped), so one group's
``shaddr.vm.acclck`` teaches the checker about every group's.  Same-class
edges (A → A) are recorded but never reported — nesting two instances of
one class is the shared-pregion walk's legitimate pattern, and flagging
it would drown the report.

Like the metrics registries, the checker is **off by default and free
when off**: a disabled machine carries the shared :data:`NULL_LOCKDEP`
whose hooks are empty methods, and nothing else changes.  Everything is
host-side — checking charges no simulated cycles and cannot perturb a
measurement.  Enable it with ``System(lockdep=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: lock kinds that are exclusive (double-acquire is self-deadlock)
EXCLUSIVE_KINDS = frozenset({"spin", "uspin", "update", "write"})

#: lock kinds a context may not hold while blocking (busy-waiting locks)
SPIN_KINDS = frozenset({"spin"})


def lock_class(name: str) -> str:
    """The dependency-graph key for a lock name.

    Per-instance suffixes are stripped so same-shaped locks share one
    node: everything from the first ``:`` or ``@`` on goes, then
    trailing digits (``runq3`` → ``runq``).  Dots are structure, not
    instance — ``shaddr.vm.acclck`` is its own class.
    """
    for sep in (":", "@"):
        cut = name.find(sep)
        if cut >= 0:
            name = name[:cut]
    return name.rstrip("0123456789") or name


class HeldLock:
    """One entry in a context's held-lock chain."""

    __slots__ = ("instance", "name", "cls", "kind", "since")

    def __init__(self, instance: int, name: str, cls: str, kind: str, since: int):
        self.instance = instance
        self.name = name
        self.cls = cls
        self.kind = kind
        self.since = since

    def describe(self) -> str:
        return "[%10d] %-8s %s (class %s)" % (self.since, self.kind, self.name, self.cls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<HeldLock %s kind=%s since=%d>" % (self.name, self.kind, self.since)


class _Edge:
    """One observed held-while-acquiring dependency, with its evidence."""

    __slots__ = ("src", "dst", "ctx_label", "cycle", "chain")

    def __init__(self, src: str, dst: str, ctx_label: str, cycle: int,
                 chain: List[HeldLock]):
        self.src = src
        self.dst = dst
        self.ctx_label = ctx_label
        self.cycle = cycle
        self.chain = chain  #: held chain + the attempted lock, at edge time


class LockOrderViolation(SimulationError):
    """A structured lockdep finding.

    ``kind`` is one of ``order-inversion``, ``sleep-holding-spinlock``,
    ``double-acquire``, ``release-non-owner``.  ``chains`` is a list of
    ``(title, [HeldLock, ...])`` pairs — the held-lock stacks that prove
    the violation, rendered span-style with their acquire cycles.
    """

    def __init__(self, kind: str, message: str,
                 chains: Optional[List[Tuple[str, List[HeldLock]]]] = None):
        self.kind = kind
        self.chains = chains or []
        super().__init__(self._render(message))

    def _render(self, message: str) -> str:
        lines = ["lockdep: %s: %s" % (self.kind, message)]
        for title, chain in self.chains:
            lines.append("%s:" % title)
            if chain:
                lines.extend("  " + held.describe() for held in chain)
            else:
                lines.append("  (no locks held)")
        return "\n".join(lines)


def _ctx_key(ctx) -> int:
    return id(ctx) if ctx is not None else 0


def _ctx_label(ctx) -> str:
    if ctx is None:
        return "host"
    pid = getattr(ctx, "pid", None)
    name = getattr(ctx, "name", None)
    if pid is not None:
        return "pid %s (%s)" % (pid, name or "?")
    return name or repr(ctx)


class LockDep:
    """The per-machine lock dependency checker."""

    enabled = True

    def __init__(self, machine):
        self.machine = machine
        #: ctx key -> held chain, acquisition order
        self._held: Dict[int, List[HeldLock]] = {}
        #: (src class, dst class) -> first Edge observed
        self._edges: Dict[Tuple[str, str], _Edge] = {}
        #: every violation raised, for post-mortem reporting
        self.violations: List[LockOrderViolation] = []
        self.checks = 0

    # ------------------------------------------------------------------
    # hooks called by the primitives

    def attempt(self, lock, ctx, kind: str) -> None:
        """``ctx`` is about to acquire ``lock``: record dependency edges
        against everything it already holds and flag inversions."""
        self.checks += 1
        held = self._held.get(_ctx_key(ctx))
        if not held:
            return
        cls = lock_class(lock.name)
        instance = id(lock)
        now = self.machine.engine.now
        for entry in held:
            if entry.instance == instance:
                if kind in EXCLUSIVE_KINDS or entry.kind in EXCLUSIVE_KINDS:
                    self._raise(LockOrderViolation(
                        "double-acquire",
                        "%s re-acquires %s (%s) already held since cycle %d"
                        % (_ctx_label(ctx), lock.name, kind, entry.since),
                        [("held by " + _ctx_label(ctx), list(held))],
                    ))
                continue
            if entry.cls == cls:
                continue  # same-class nesting: recorded implicitly, not reported
            reverse = self._edges.get((cls, entry.cls))
            if reverse is not None:
                self._raise(LockOrderViolation(
                    "order-inversion",
                    "%s acquires %s while holding %s, but %s was taken "
                    "while holding %s (by %s at cycle %d)"
                    % (_ctx_label(ctx), cls, entry.cls, entry.cls,
                       cls, reverse.ctx_label, reverse.cycle),
                    [
                        ("this chain (%s, cycle %d)" % (_ctx_label(ctx), now),
                         list(held) + [HeldLock(instance, lock.name, cls, kind, now)]),
                        ("conflicting chain (%s, cycle %d)"
                         % (reverse.ctx_label, reverse.cycle),
                         list(reverse.chain)),
                    ],
                ))
            if (entry.cls, cls) not in self._edges:
                chain = list(held) + [HeldLock(instance, lock.name, cls, kind, now)]
                self._edges[(entry.cls, cls)] = _Edge(
                    entry.cls, cls, _ctx_label(ctx), now, chain
                )

    def acquired(self, lock, ctx, kind: str) -> None:
        """``ctx`` now holds ``lock``; push it onto the held chain."""
        name = lock.name
        self._held.setdefault(_ctx_key(ctx), []).append(
            HeldLock(id(lock), name, lock_class(name), kind, self.machine.engine.now)
        )

    def released(self, lock, ctx=None) -> None:
        """``ctx`` releases ``lock``.  ``ctx=None`` means the caller does
        not know who is releasing (bare ``SpinLock.release()``): the
        recorded holder is credited and no ownership check is possible."""
        instance = id(lock)
        if ctx is None:
            for held in self._held.values():
                for index in range(len(held) - 1, -1, -1):
                    if held[index].instance == instance:
                        del held[index]
                        return
            return  # untracked acquire (e.g. checker enabled mid-run)
        held = self._held.get(_ctx_key(ctx))
        if held:
            for index in range(len(held) - 1, -1, -1):
                if held[index].instance == instance:
                    del held[index]
                    return
        owner = self._find_holder(instance)
        detail = ("held by %s" % owner) if owner else "not held at all"
        self._raise(LockOrderViolation(
            "release-non-owner",
            "%s releases %s which it does not hold (%s)"
            % (_ctx_label(ctx), lock.name, detail),
            [("held by " + _ctx_label(ctx), list(held or []))],
        ))

    def sleeping(self, ctx, reason: str) -> None:
        """``ctx`` is about to block (give up the CPU) on ``reason``."""
        held = self._held.get(_ctx_key(ctx))
        if not held:
            return
        spinning = [entry for entry in held if entry.kind in SPIN_KINDS]
        if spinning:
            self._raise(LockOrderViolation(
                "sleep-holding-spinlock",
                "%s blocks on %s while holding spin lock %s"
                % (_ctx_label(ctx), reason,
                   ", ".join(entry.name for entry in spinning)),
                [("held by " + _ctx_label(ctx), list(held))],
            ))

    # ------------------------------------------------------------------

    def _find_holder(self, instance: int) -> Optional[str]:
        for key, held in self._held.items():
            for entry in held:
                if entry.instance == instance:
                    return "context %#x" % key
        return None

    def _raise(self, violation: LockOrderViolation) -> None:
        self.violations.append(violation)
        raise violation

    # ------------------------------------------------------------------
    # introspection

    def held_by(self, ctx) -> List[HeldLock]:
        return list(self._held.get(_ctx_key(ctx), []))

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(self._edges)

    def report(self) -> str:
        """The observed lock-order graph, one edge per line."""
        lines = ["lock-order graph (%d edges):" % len(self._edges)]
        for key in sorted(self._edges):
            lines.append("  %s -> %s" % key)
        return "\n".join(lines)


class _NullLockDep:
    """Shared sink for machines with checking disabled: every hook is a
    no-op, so the primitives call unconditionally at zero cost."""

    enabled = False
    violations: List[LockOrderViolation] = []

    def attempt(self, lock, ctx, kind: str) -> None:
        pass

    def acquired(self, lock, ctx, kind: str) -> None:
        pass

    def released(self, lock, ctx=None) -> None:
        pass

    def sleeping(self, ctx, reason: str) -> None:
        pass

    def held_by(self, ctx) -> List[HeldLock]:
        return []

    def report(self) -> str:
        return "lockdep disabled"


#: the one disabled checker every unchecked machine shares
NULL_LOCKDEP = _NullLockDep()
