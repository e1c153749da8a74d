"""Flagship multi-tier server workload (E17): share groups under traffic.

This is the paper's raison d'etre at production scale: server processes
cooperating on heavy request traffic through shared address spaces
(PR_SADDR) and shared descriptor tables (PR_SFDS).  The topology is a
classic three-tier server:

* an **arrival generator** drives the system *open loop* — request
  batches are stamped with a precomputed schedule and sent over a
  socket at their scheduled instants (``alarm``/``pause``), so server
  backlog cannot slow the offered load down (no coordinated omission);
* an **accept-loop process** recv's batch ids and routes each to its
  worker group over a per-group pipe;
* a pool of **worker share groups** — each a fork'd leader that
  ``sproc``'s workers with ``PR_SADDR | PR_SFDS`` — pops batches from a
  blocking work queue, serves the batch keys out of a **shared cache
  arena** (``shmalloc`` + LRU), and on a miss reads the page from
  "disk" through the group's **AIO ring**.  Cache eviction ``munmap``'s
  the victim page, firing range TLB shootdowns across the whole group;
  every batch also opens/appends/closes a response log in the *shared*
  fd table, churning descriptor slots concurrently.

Latency per request is measured against the *scheduled* arrival time,
so queueing delay under overload is fully visible; the arrival-rate
sweep in ``bench/experiments.py`` (E17) turns these runs into a
capacity curve with a saturation knee.

All instrumentation is host-side (plain counters on :class:`ServerStats`
plus kstat, which is no-op when disabled): a run is cycle-identical with
metrics on or off.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Dict, Iterator, List, Tuple

from repro.fs.file import O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.signals import SIGALRM
from repro.runtime.aio import AioRing
from repro.runtime.shmalloc import Arena
from repro.runtime.ulocks import USpinLock
from repro.runtime.workqueue import BlockingWorkQueue
from repro.share.mask import PR_SADDR, PR_SFDS
from repro.workloads.generators import lcg, payload

#: batch id that shuts the whole pipeline down (flows generator ->
#: accept loop -> pipes -> queue close -> ring shutdown)
SENTINEL = 0xFFFFFFFF

#: shortest interval worth an alarm()/pause() pair: anything inside the
#: syscall-boundary window risks the classic lost-SIGALRM pause() race
_MIN_ALARM_SLEEP = 500

_PAGE = 4096

#: cache entry layout (word offsets from the entry base)
_E_KEY = 0
_E_PAGE = 4      # data page vaddr; 0 while the fill I/O is in flight
_E_PREV = 8
_E_NEXT = 12
_ENTRY_WORDS = 4

#: cache control block layout (word offsets from ctl base)
_C_LOCK = 0
_C_COUNT = 4
_C_HEAD = 8
_C_TAIL = 12

#: extra entry slots past ``capacity`` for the all-mid-fill corner: a
#: miss that finds every resident entry pending may run over capacity
#: by at most the number of in-flight fills
_CACHE_SLACK = 64


class ServerConfig:
    """Knobs for one server run.  Everything is deterministic in ``seed``."""

    def __init__(
        self,
        ngroups: int = 8,
        nworkers: int = 6,
        naio: int = 2,
        batch: int = 128,
        keyspace: int = 256,
        cache_capacity: int = 192,
        nshards: int = 4,
        npages: int = 64,
        nrequests: int = 50_000,
        rate_per_kcycle: float = 20.0,
        svc_cycles: int = 120,
        queue_capacity: int = 256,
        burst_every: int = 16,
        burst_len: int = 4,
        burst_factor: int = 8,
        seed: int = 1,
    ):
        self.ngroups = ngroups
        self.nworkers = nworkers
        self.naio = naio
        self.batch = batch
        self.keyspace = keyspace
        self.cache_capacity = cache_capacity
        self.nshards = nshards
        self.npages = npages
        self.nrequests = nrequests
        self.rate_per_kcycle = rate_per_kcycle
        self.svc_cycles = svc_cycles
        self.queue_capacity = queue_capacity
        self.burst_every = burst_every
        self.burst_len = burst_len
        self.burst_factor = burst_factor
        self.seed = seed

    @property
    def nbatches(self) -> int:
        return (self.nrequests + self.batch - 1) // self.batch


class Batch:
    """One scheduled arrival: ``nreq`` requests over ``keys`` (coalesced)."""

    __slots__ = ("bid", "group", "offset", "keys", "nreq")

    def __init__(self, bid: int, group: int, offset: int,
                 keys: List[Tuple[int, int]], nreq: int):
        self.bid = bid
        self.group = group
        self.offset = offset
        self.keys = keys
        self.nreq = nreq


class ArrivalSchedule:
    """A deterministic open-loop Poisson/burst arrival plan.

    Precomputed host-side from the workload seed: batch arrival offsets
    are exponential inter-arrival gaps (with periodic bursts compressed
    by ``burst_factor``), each batch is routed to ``bid %``-independent
    group drawn from the stream, and its keys follow a quintic-skew
    popular-key distribution over the group's keyspace.  The same seed
    always yields the same schedule (tested).
    """

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        gen = lcg(cfg.seed)
        mean_gap = cfg.batch * 1000.0 / cfg.rate_per_kcycle
        self.batches: List[Batch] = []
        offset = 0
        remaining = cfg.nrequests
        for bid in range(cfg.nbatches):
            gap = self._exp_gap(gen, mean_gap)
            if cfg.burst_every and (bid % cfg.burst_every) < cfg.burst_len:
                gap = max(1, gap // cfg.burst_factor)
            offset += gap
            nreq = min(cfg.batch, remaining)
            remaining -= nreq
            group = next(gen) % cfg.ngroups
            keys = self._draw_keys(gen, nreq, cfg.keyspace)
            self.batches.append(Batch(bid, group, offset, keys, nreq))
        self.horizon = offset

    @staticmethod
    def _exp_gap(gen: Iterator[int], mean: float) -> int:
        u = (next(gen) + 1) / 4294967296.0
        return max(1, int(-mean * math.log(u)))

    @staticmethod
    def _draw_keys(gen: Iterator[int], nreq: int,
                   keyspace: int) -> List[Tuple[int, int]]:
        counts: Dict[int, int] = {}
        get = counts.get
        top = keyspace - 1
        for word in islice(gen, nreq):
            u = word / 4294967296.0
            u2 = u * u
            key = int(u2 * u2 * u * keyspace)
            if key > top:
                key = top
            counts[key] = get(key, 0) + 1
        return sorted(counts.items())

    @property
    def offered_per_kcycle(self) -> float:
        return self.cfg.nrequests * 1000.0 / self.horizon if self.horizon else 0.0


class ServerStats:
    """Host-side run accounting (never charges simulated cycles)."""

    def __init__(self):
        self.t0 = 0                 # generator start cycle
        self.t_first_send = 0
        self.t_last_done = 0
        self.sent_reqs = 0
        self.done_reqs = 0
        self.done_batches = 0
        self.hits = 0
        self.misses = 0
        self.collapsed = 0
        self.evictions = 0
        self.verify_failures = 0
        self.max_inflight = 0
        self.latencies: List[Tuple[int, int]] = []   # (latency, nreq)

    def record_send(self, nreq: int) -> None:
        self.sent_reqs += nreq
        inflight = self.sent_reqs - self.done_reqs
        if inflight > self.max_inflight:
            self.max_inflight = inflight

    def record_done(self, now: int, latency: int, nreq: int) -> None:
        self.done_reqs += nreq
        self.done_batches += 1
        self.t_last_done = now
        self.latencies.append((latency, nreq))


def weighted_percentile(samples: List[Tuple[int, int]], pct: float) -> float:
    """Exact percentile of a weighted sample list ``[(value, count)]``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    total = sum(n for _, n in ordered)
    rank = pct / 100.0 * total
    cumulative = 0
    for value, n in ordered:
        cumulative += n
        if cumulative >= rank:
            return float(value)
    return float(ordered[-1][0])


# ----------------------------------------------------------------------
# shared LRU cache on a shmalloc arena


class SharedCache:
    """A direct-mapped key table + LRU list in a group's shared arena.

    One word per key in ``table`` points into a *static array* of entry
    blocks carved from the arena at create time (capacity plus slack —
    no allocator traffic on the miss path; an evicted entry's block is
    reused in place for the replacement).  Entries form a doubly-linked
    LRU list.  All state transitions happen under one user spinlock;
    data pages are read *under the lock* too, which pins the page
    across the read (an entry can only be evicted — and its page
    ``munmap``'d — by a lock holder).  A miss inserts the entry
    *pending* (page word 0) so concurrent requests for the same key
    collapse instead of duplicating the disk read, then fills the page
    word with a single atomic store once the I/O completed and the
    payload was verified.

    The hot paths move whole 16-byte entry blocks with one bulk
    load/store (same simulated cycle charge, one event) — at millions
    of requests the cache dominates the host event count.
    """

    def __init__(self, ctl: int, table: int, entries: int,
                 capacity: int, keyspace: int):
        self.ctl = ctl
        self.table = table
        self.entries = entries
        self.capacity = capacity
        self.keyspace = keyspace
        self.lock = USpinLock(ctl + _C_LOCK)

    @classmethod
    def create(cls, api, arena: Arena, capacity: int, keyspace: int):
        """Generator: carve control block, table and entry array from
        ``arena``."""
        ctl = yield from arena.alloc_words(api, 4)
        table = yield from arena.alloc_words(api, keyspace)
        entries = yield from arena.alloc_words(
            api, (capacity + _CACHE_SLACK) * _ENTRY_WORDS)
        yield from api.store(ctl, b"\x00" * 16)
        yield from api.store(table, b"\x00" * (keyspace * 4))
        return cls(ctl, table, entries, capacity, keyspace)

    # ------------------------------------------------------------------

    def access(self, api, key: int):
        """Generator: one key lookup.

        Returns ``(outcome, value, entry, victim)`` where outcome is
        ``"hit"`` (value = first data word, read under the lock),
        ``"collapsed"`` (another worker's fill is in flight) or
        ``"miss"`` (entry reserved pending; caller must fill).  On a
        miss at capacity, ``victim`` is the evicted entry's data page —
        the caller must ``munmap`` it *after* releasing the lock
        (teardown is off the critical section on purpose); the victim's
        entry block itself is reused for the new pending entry.
        """
        slot = self.table + key * 4
        while True:
            yield from self.lock.acquire(api)
            entry = yield from api.load_word(slot)
            if entry:
                blk = yield from api.load(entry, 16)
                page = int.from_bytes(blk[4:8], "little")
                if page == 0:
                    yield from self.lock.release(api)
                    return "collapsed", 0, entry, None
                head = yield from api.load_word(self.ctl + _C_HEAD)
                if head != entry:
                    # move to front: entry != head implies prev != 0
                    prev = int.from_bytes(blk[8:12], "little")
                    nxt = int.from_bytes(blk[12:16], "little")
                    yield from api.store_word(prev + _E_NEXT, nxt)
                    if nxt:
                        yield from api.store_word(nxt + _E_PREV, prev)
                    else:
                        yield from api.store_word(self.ctl + _C_TAIL, prev)
                    yield from api.store(
                        entry + _E_PREV,
                        b"\x00\x00\x00\x00" + head.to_bytes(4, "little"))
                    yield from api.store_word(head + _E_PREV, entry)
                    yield from api.store_word(self.ctl + _C_HEAD, entry)
                value = yield from api.load_word(page)
                yield from self.lock.release(api)
                return "hit", value, entry, None

            # miss: evict if at capacity (skipping entries mid-fill),
            # then reserve a pending entry so duplicate misses collapse
            ctl_blk = yield from api.load(self.ctl + _C_COUNT, 12)
            count = int.from_bytes(ctl_blk[0:4], "little")
            head = int.from_bytes(ctl_blk[4:8], "little")
            tail = int.from_bytes(ctl_blk[8:12], "little")
            victim = None
            new = 0
            if count >= self.capacity:
                cand = tail
                cblk = b""
                while cand:
                    cblk = yield from api.load(cand, 16)
                    if int.from_bytes(cblk[4:8], "little"):
                        break
                    cand = int.from_bytes(cblk[8:12], "little")
                if cand:
                    ckey = int.from_bytes(cblk[0:4], "little")
                    victim = int.from_bytes(cblk[4:8], "little")
                    cprev = int.from_bytes(cblk[8:12], "little")
                    cnxt = int.from_bytes(cblk[12:16], "little")
                    yield from api.store_word(self.table + ckey * 4, 0)
                    if cprev:
                        yield from api.store_word(cprev + _E_NEXT, cnxt)
                    else:
                        head = cnxt
                    if cnxt:
                        yield from api.store_word(cnxt + _E_PREV, cprev)
                    else:
                        tail = cprev
                    new = cand
            if not new:
                if count >= self.capacity + _CACHE_SLACK:
                    # even the slack slots are mid-fill: wait for some
                    # fill to land, then look again
                    yield from self.lock.release(api)
                    yield from api.yield_cpu()
                    continue
                new = self.entries + count * _ENTRY_WORDS * 4
                count += 1
            # insert pending at the LRU front: key, page=0, prev=0,
            # next=old head — one block store
            yield from api.store(
                new, key.to_bytes(4, "little") + b"\x00" * 8 +
                head.to_bytes(4, "little"))
            if head:
                yield from api.store_word(head + _E_PREV, new)
            else:
                tail = new
            head = new
            yield from api.store_word(slot, new)
            yield from api.store(
                self.ctl + _C_COUNT,
                count.to_bytes(4, "little") + head.to_bytes(4, "little") +
                tail.to_bytes(4, "little"))
            yield from self.lock.release(api)
            return "miss", 0, new, victim


class ShardedCache:
    """N independent :class:`SharedCache` shards, one lock + LRU each.

    A single cache lock convoys once a dozen workers and AIO completions
    hammer it; sharding by the key's low bits (the quintic-skew hot keys
    are the low key numbers, so consecutive hot keys land on *different*
    shards) divides both the hold time collisions and the spin traffic.
    Eviction stays LRU within each shard, which is how sharded LRU
    caches behave in practice.
    """

    def __init__(self, shards: List[SharedCache]):
        self.shards = shards
        self.nshards = len(shards)

    @classmethod
    def create(cls, api, arena: Arena, capacity: int, keyspace: int,
               nshards: int = 4):
        nshards = max(1, min(nshards, capacity))
        per_cap = (capacity + nshards - 1) // nshards
        per_keys = (keyspace + nshards - 1) // nshards
        shards = []
        for _ in range(nshards):
            shard = yield from SharedCache.create(api, arena, per_cap, per_keys)
            shards.append(shard)
        return cls(shards)

    @property
    def capacity(self) -> int:
        return sum(s.capacity for s in self.shards)

    def access(self, api, key: int):
        """The shard's own ``access`` generator, returned, not wrapped."""
        return self.shards[key % self.nshards].access(api, key // self.nshards)

    def resident(self, api):
        """Generator: total entries across shards (for tests)."""
        total = 0
        for shard in self.shards:
            count = yield from api.load_word(shard.ctl + _C_COUNT)
            total += count
        return total

    def fill(self, api, entry: int, page: int):
        """Generator: publish a fetched page (single atomic word store)."""
        yield from api.store_word(entry + _E_PAGE, page)


# ----------------------------------------------------------------------
# the three tiers


def _read_exact(api, fd: int, n: int):
    data = b""
    while len(data) < n:
        chunk = yield from api.read(fd, n - len(data))
        if not isinstance(chunk, bytes) or chunk == b"":
            return None
        data += chunk
    return data


def _recv_exact(api, fd: int, n: int):
    data = b""
    while len(data) < n:
        chunk = yield from api.recv(fd, n - len(data))
        if not isinstance(chunk, bytes) or chunk == b"":
            return None
        data += chunk
    return data


def _send_all(api, fd: int, data: bytes):
    sent = 0
    while sent < len(data):
        count = yield from api.send(fd, data[sent:])
        if not isinstance(count, int) or count <= 0:
            return -1
        sent += count
    return sent


def _alarm_handler(api, sig):
    return
    yield  # pragma: no cover - make this a (no-op) generator handler


def generator_proc(api, ctx):
    """The open-loop load source: fire each batch at its scheduled time."""
    schedule: ArrivalSchedule = ctx["schedule"]
    stats: ServerStats = ctx["stats"]

    yield from api.signal(SIGALRM, _alarm_handler)
    sock = yield from api.socket()
    while True:
        rc = yield from api.connect(sock, ctx["sockname"])
        if rc == 0:
            break
        yield from api.compute(2_000)

    start = api.now
    stats.t0 = start
    ctx["t0"] = start
    for batch in schedule.batches:
        target = start + batch.offset
        delta = target - api.now
        if delta > _MIN_ALARM_SLEEP:
            yield from api.alarm(delta)
            yield from api.pause()
        elif delta > 0:
            # The classic pause() race, faithfully simulated: an alarm
            # shorter than the syscall-exit window is delivered at the
            # alarm() boundary itself, the handler consumes it, and the
            # following pause() sleeps forever.  Short waits burn user
            # cycles instead of arming a timer they could lose.
            yield from api.compute(delta)
        if stats.t_first_send == 0:
            stats.t_first_send = api.now
        stats.record_send(batch.nreq)
        rc = yield from _send_all(api, sock, batch.bid.to_bytes(4, "little"))
        if rc < 0:
            break
    yield from _send_all(api, sock, SENTINEL.to_bytes(4, "little"))
    yield from api.close(sock)
    return 0


def accept_proc(api, ctx, sock):
    """The accept loop: recv batch ids, route each down its group pipe."""
    schedule: ArrivalSchedule = ctx["schedule"]
    pipe_w: List[int] = ctx["pipe_w"]
    conn = yield from api.accept(sock)
    while True:
        rec = yield from _recv_exact(api, conn, 4)
        if rec is None:
            break
        bid = int.from_bytes(rec, "little")
        if bid == SENTINEL:
            break
        group = schedule.batches[bid].group
        yield from api.write(pipe_w[group], rec)
    for wfd in pipe_w:
        yield from api.write(wfd, SENTINEL.to_bytes(4, "little"))
    yield from api.close(conn)
    return 0


def leader_proc(api, arg):
    """A worker-group leader: build the group, then feed it from the pipe."""
    group, rfd, ctx = arg
    cfg: ServerConfig = ctx["cfg"]

    arena = yield from Arena.create(api, ctx["arena_bytes"])
    cache = yield from ShardedCache.create(
        api, arena, cfg.cache_capacity, cfg.keyspace, cfg.nshards)
    queue = yield from BlockingWorkQueue.create(api, cfg.queue_capacity)
    disk_fd = yield from api.open(ctx["diskpath"], O_RDONLY)
    ring = yield from AioRing.create(
        api, nworkers=cfg.naio, queue_capacity=cfg.queue_capacity,
        blocking=True, arena_bytes=64 * 1024)

    wctx = {
        "group": group, "queue": queue, "cache": cache,
        "ring": ring, "disk_fd": disk_fd, "ctx": ctx,
    }
    for _ in range(cfg.nworkers):
        yield from api.sproc(worker_proc, PR_SADDR | PR_SFDS, wctx)

    while True:
        rec = yield from _read_exact(api, rfd, 4)
        if rec is None:
            break
        bid = int.from_bytes(rec, "little")
        if bid == SENTINEL:
            break
        yield from queue.push(api, bid)

    yield from queue.close(api)
    for _ in range(cfg.nworkers):
        yield from api.wait()
    yield from ring.shutdown(api)
    return 0


def worker_proc(api, wctx):
    """A share-group worker: pop a batch, serve its keys, log, account."""
    cfg: ServerConfig = wctx["ctx"]["cfg"]
    schedule: ArrivalSchedule = wctx["ctx"]["schedule"]
    stats: ServerStats = wctx["ctx"]["stats"]
    expected: List[int] = wctx["ctx"]["expected"]
    queue: BlockingWorkQueue = wctx["queue"]
    cache: ShardedCache = wctx["cache"]
    ring: AioRing = wctx["ring"]
    disk_fd: int = wctx["disk_fd"]
    group: int = wctx["group"]
    kstat = api.kernel.kstat
    ncpus = len(api.kernel.machine.cpus)
    logpath = "/srv-log-%d" % group

    # reusable request blocks: one per possible miss, so the arena
    # allocator stays entirely off the steady-state I/O path
    reqblocks = yield from ring.prep_requests(api, cfg.batch)

    while True:
        bid = yield from queue.pop(api)
        if bid is None:
            return 0
        batch = schedule.batches[bid]
        hits = misses = collapsed = 0
        pending = []   # (entry, page, page_no, request): misses staged
        # rotate the sweep phase per batch so concurrent workers don't
        # march over the cache shards in lockstep
        keys = batch.keys
        rot = bid % len(keys)
        for key, _count in keys[rot:] + keys[:rot]:
            outcome, value, entry, victim = yield from cache.access(api, key)
            page_no = key % cfg.npages
            if outcome == "hit":
                hits += 1
                if value != expected[page_no]:
                    stats.verify_failures += 1
            elif outcome == "collapsed":
                collapsed += 1
            else:
                misses += 1
                if victim is not None:
                    # teardown outside the cache lock: the munmap fires
                    # a range shootdown across the whole share group
                    yield from api.munmap(victim)
                    stats.evictions += 1
                    kstat.add("group", group, "server_evictions")
                page = yield from api.mmap(_PAGE)
                request = reqblocks[len(pending)]
                yield from ring.submit_read_into(
                    api, request, disk_fd, page, _PAGE, page_no * _PAGE)
                pending.append((entry, page, page_no, request))
        if pending:
            # one enqueue for the whole miss wave, then collect: the
            # disk round-trips overlap, so the batch pays ~one disk
            # latency instead of one per miss
            yield from ring.kick(api, [req for _, _, _, req in pending])
        for entry, page, page_no, request in pending:
            yield from ring.wait_block(api, request, free=False)
            value = yield from api.load_word(page)
            if value != expected[page_no]:
                stats.verify_failures += 1
            yield from cache.fill(api, entry, page)

        # per-request service time, amortized into one preemptible burst
        yield from api.compute(batch.nreq * cfg.svc_cycles)

        # response log: open/append/close churns the *shared* fd table
        log_fd = yield from api.open(logpath, O_CREAT | O_WRONLY | O_APPEND)
        yield from api.write(log_fd, bid.to_bytes(4, "little") +
                             batch.nreq.to_bytes(4, "little"))
        yield from api.close(log_fd)

        now = api.now
        latency = now - (wctx["ctx"]["t0"] + batch.offset)
        stats.hits += hits
        stats.misses += misses
        stats.collapsed += collapsed
        stats.record_done(now, latency, batch.nreq)
        kstat.observe_n("kernel", 0, "request_latency", latency, batch.nreq)
        kstat.add("kernel", 0, "server_requests", batch.nreq)
        for cpu in range(ncpus):
            kstat.observe("kernel", 0, "runq_depth_sample",
                          kstat.get("cpu", cpu, "runq_depth"))


def server_root(api, ctx):
    """The init process: write the disk image, stand the tiers up."""
    cfg: ServerConfig = ctx["cfg"]

    disk_fd = yield from api.open(ctx["diskpath"], O_CREAT | O_RDWR)
    image = ctx["disk_image"]
    for off in range(0, len(image), _PAGE):
        yield from api.write(disk_fd, image[off:off + _PAGE])
    yield from api.close(disk_fd)

    sock = yield from api.socket()
    yield from api.bind(sock, ctx["sockname"])
    yield from api.listen(sock, 4)

    pipe_w: List[int] = []
    for group in range(cfg.ngroups):
        rfd, wfd = yield from api.pipe()
        pipe_w.append(wfd)
        yield from api.fork(leader_proc, (group, rfd, ctx))
    ctx["pipe_w"] = pipe_w

    yield from api.fork(generator_proc, ctx)
    yield from accept_proc(api, ctx, sock)

    for _ in range(cfg.ngroups + 1):
        yield from api.wait()
    return 0


# ----------------------------------------------------------------------
# driving a run


def run_server(cfg: ServerConfig, ncpus: int = 8, memory_mb: int = 64,
               metrics_enabled: bool = True, perturb_seed=None,
               system_cls=None, **system_kwargs) -> dict:
    """Run one server scenario; returns host-exact result metrics.

    The returned dict is computed from :class:`ServerStats` (exact,
    host-side), so results are identical with kstat metrics on or off —
    the cycle-identity test relies on that.
    """
    from repro.system import System
    cls = system_cls or System
    schedule = ArrivalSchedule(cfg)
    stats = ServerStats()
    disk_image = payload(cfg.npages * _PAGE, seed=cfg.seed + 7)
    expected = [
        int.from_bytes(disk_image[p * _PAGE:p * _PAGE + 4], "little")
        for p in range(cfg.npages)
    ]
    # arena: cache table + static entry arrays (with per-shard slack)
    arena_bytes = 1 << max(
        16, (cfg.keyspace * 4
             + (cfg.cache_capacity + cfg.nshards * _CACHE_SLACK) * 32
             + 8192).bit_length())
    ctx = {
        "cfg": cfg, "schedule": schedule, "stats": stats,
        "expected": expected, "disk_image": disk_image,
        "arena_bytes": arena_bytes,
        "sockname": "e17-server", "diskpath": "/srv-disk",
        "t0": 0,
    }
    system = cls(ncpus=ncpus, memory_mb=memory_mb,
                 metrics_enabled=metrics_enabled,
                 perturb_seed=perturb_seed, **system_kwargs)
    system.spawn(server_root, ctx, name="e17-root")
    system.run()

    makespan = max(1, stats.t_last_done - stats.t0)
    accesses = stats.hits + stats.misses + stats.collapsed
    return {
        "system": system,
        "stats": stats,
        "offered_per_kcycle": schedule.offered_per_kcycle,
        "completed": stats.done_reqs,
        "throughput_per_kcycle": stats.done_reqs * 1000.0 / makespan,
        "makespan": makespan,
        "sim_now": system.machine.engine.now,
        "p50": weighted_percentile(stats.latencies, 50.0),
        "p95": weighted_percentile(stats.latencies, 95.0),
        "p99": weighted_percentile(stats.latencies, 99.0),
        "mean_latency": (
            sum(lat * n for lat, n in stats.latencies)
            / max(1, sum(n for _, n in stats.latencies))
        ),
        "hits": stats.hits,
        "misses": stats.misses,
        "collapsed": stats.collapsed,
        "hit_pct": 100.0 * stats.hits / accesses if accesses else 0.0,
        "evictions": stats.evictions,
        "verify_failures": stats.verify_failures,
        "max_inflight": stats.max_inflight,
    }
