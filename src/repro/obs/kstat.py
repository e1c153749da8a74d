"""kstat-style counter registry: cheap named metrics per kernel entity.

Modeled on the Solaris/IRIX ``kstat`` facility: every counter lives
under a *scope* — ``("kernel", 0)``, ``("cpu", idx)``, ``("proc", pid)``
or ``("group", sgid)`` — and a name is created on first touch.

Hot owners (the CPU, the scheduler, the syscall trampoline, the VM
lookup) bind *handles* once — ``counters(kind, ident)`` is one scope's
live counter dict, ``histogram(kind, ident, name)`` one live
:class:`Histogram` — so a bump is a single in-place ``scope[name] += n``
with no key tuple and no registry call.  Cold sites keep
``add``/``set``/``observe``, which write the same storage.  Readers skip
scopes and histograms nobody has touched, so binding a handle is
invisible until it records.

Counters are host-side instrumentation: they never charge simulated
cycles, so collection cannot perturb a measurement.  Because the
simulation itself is deterministic, counter values are too — identical
runs produce identical snapshots (``tests/test_obs.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Optional, Tuple


class Histogram:
    """A power-of-two-bucketed value distribution (latency style).

    ``add(value)`` drops the value into bucket ``value.bit_length()``,
    i.e. bucket *b* holds values in ``[2**(b-1), 2**b)``.
    """

    __slots__ = ("count", "total", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.max = 0
        self.buckets: Dict[int, int] = {}

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def add_n(self, value: int, n: int) -> None:
        """Record ``n`` identical samples of ``value`` in O(1).

        Batch workloads complete many requests at one instant; a weighted
        add keeps per-batch instrumentation cost independent of the batch
        size while producing the same distribution as ``n`` ``add`` calls.
        """
        if n <= 0:
            return
        self.count += n
        self.total += value * n
        if value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    def clear(self) -> None:
        """Drop every sample in place, so a bound handle stays live."""
        self.count = 0
        self.total = 0
        self.max = 0
        self.buckets.clear()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile from the bucket counts.

        Walks the buckets in value order until the cumulative count
        reaches ``pct%`` of the samples, then interpolates linearly
        inside the crossing bucket's value range (bucket *b* covers
        ``[2**(b-1), 2**b - 1]``; bucket 0 is exactly the value 0).
        The estimate is exact at bucket edges and at worst one bucket
        wide — the usual power-of-two-histogram bargain.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % pct)
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        cumulative = 0
        for bucket in sorted(self.buckets):
            n = self.buckets[bucket]
            if cumulative + n >= rank:
                lo = 0 if bucket == 0 else 1 << (bucket - 1)
                hi = 0 if bucket == 0 else (1 << bucket) - 1
                frac = (rank - cumulative) / n
                return lo + frac * (hi - lo)
            cumulative += n
        return float(self.max)  # pragma: no cover - rank <= count always

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": dict(sorted(self.buckets.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Histogram n=%d mean=%.1f max=%d>" % (self.count, self.mean, self.max)


#: the scope kinds the kernel registers under
SCOPE_KINDS = ("kernel", "cpu", "proc", "group")


class KstatRegistry:
    """Named counters, gauges and histograms, scoped per kernel entity.

    * counters — monotonically increasing ints (``add``, or ``+=`` on a
      ``counters`` handle);
    * gauges — last-write-wins values (``set``, or ``=`` on the handle);
    * histograms — value distributions (``observe``, or ``add`` on a
      ``histogram`` handle).

    All three share a namespace within a scope; ``snapshot()`` returns
    one nested plain-dict view of everything, suitable for JSON.  A
    disabled registry records nothing: its methods return at once and
    its handles are private sinks that no reader sees.
    """

    __slots__ = ("enabled", "_values", "_hists")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: (kind, ident) -> {name: int}; a missing name reads as 0
        self._values: Dict[Tuple[str, int], DefaultDict[str, int]] = {}
        #: (kind, ident) -> {name: Histogram}
        self._hists: Dict[Tuple[str, int], Dict[str, Histogram]] = {}

    # ------------------------------------------------------------------
    # handles (bind once, bump in place)

    def counters(self, kind: str, ident: int) -> DefaultDict[str, int]:
        """The live counter/gauge dict of scope ``(kind, ident)``.

        ``scope[name] += n`` bumps a counter and ``scope[name] = value``
        sets a gauge; a name nobody touched reads as 0.
        """
        if not self.enabled:
            return defaultdict(int)
        scope = self._values.get((kind, ident))
        if scope is None:
            scope = self._values[(kind, ident)] = defaultdict(int)
        return scope

    def histogram(self, kind: str, ident: int, name: str) -> Histogram:
        """The live histogram ``name`` of scope ``(kind, ident)``."""
        if not self.enabled:
            return Histogram()
        scope = self._hists.get((kind, ident))
        if scope is None:
            scope = self._hists[(kind, ident)] = {}
        hist = scope.get(name)
        if hist is None:
            hist = scope[name] = Histogram()
        return hist

    # ------------------------------------------------------------------
    # recording (cold sites: one registry call per bump)

    def add(self, kind: str, ident: int, name: str, n: int = 1) -> None:
        """Bump counter ``name`` in scope ``(kind, ident)`` by ``n``."""
        if not self.enabled:
            return
        self.counters(kind, ident)[name] += n

    def set(self, kind: str, ident: int, name: str, value: int) -> None:
        """Set gauge ``name`` (last write wins)."""
        if not self.enabled:
            return
        self.counters(kind, ident)[name] = value

    def observe(self, kind: str, ident: int, name: str, value: int) -> None:
        """Record ``value`` into histogram ``name``."""
        if not self.enabled:
            return
        self.histogram(kind, ident, name).add(value)

    def observe_n(self, kind: str, ident: int, name: str, value: int, n: int) -> None:
        """Record ``n`` identical samples into histogram ``name`` (O(1))."""
        if not self.enabled:
            return
        self.histogram(kind, ident, name).add_n(value, n)

    # ------------------------------------------------------------------
    # reading (untouched scopes and empty histograms are invisible)

    def get(self, kind: str, ident: int, name: str, default: int = 0) -> int:
        return self._values.get((kind, ident), {}).get(name, default)

    def hist(self, kind: str, ident: int, name: str) -> Optional[Histogram]:
        """Histogram ``name``, or None when it holds no samples."""
        hist = self._hists.get((kind, ident), {}).get(name)
        return hist if hist is not None and hist.count else None

    def hists(self, kind: str, ident: int) -> Dict[str, Histogram]:
        """The histograms of one scope that hold samples, by name."""
        return {
            name: hist
            for name, hist in self._hists.get((kind, ident), {}).items()
            if hist.count
        }

    def scope(self, kind: str, ident: int) -> Dict[str, int]:
        """A copy of one scope's counter/gauge values."""
        return dict(self._values.get((kind, ident), {}))

    def scopes(self, kind: str):
        """Sorted idents that have recorded anything under ``kind``."""
        idents = {
            key[1] for key, values in self._values.items()
            if key[0] == kind and values
        }
        idents |= {
            key[1] for key, hists in self._hists.items()
            if key[0] == kind and any(hist.count for hist in hists.values())
        }
        return sorted(idents)

    def snapshot(self) -> dict:
        """Everything, as nested plain dicts: ``{kind: {ident: {name: value}}}``.

        Histograms appear under their name as ``as_dict()`` payloads.
        """
        out: dict = {}
        for (kind, ident), values in self._values.items():
            if values:
                out.setdefault(kind, {}).setdefault(ident, {}).update(values)
        for (kind, ident), hists in self._hists.items():
            for name, hist in hists.items():
                if hist.count:
                    out.setdefault(kind, {}).setdefault(ident, {})[name] = (
                        hist.as_dict()
                    )
        return out

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero everything in place: bound handles keep recording."""
        for values in self._values.values():
            values.clear()
        for hists in self._hists.values():
            for hist in hists.values():
                hist.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<KstatRegistry scopes=%d enabled=%s>" % (
            len(self._values), self.enabled,
        )
