"""Virtual memory access: TLB refill, page faults, copyin/copyout.

This is where the paper's section 6.2 machinery runs.  Every miss walks
the process's pregion lists — private first, then shared — under the
share group's shared read lock.  Demand-zero fills and copy-on-write
breaks are *scans* (they change what page-table slots point to, which the
region protocol permits under the read lock because slot mutation is
atomic); stack growth changes the pregion list itself and therefore
upgrades to the update lock.

A user-mode SEGV posts SIGSEGV and delivers it inline: with the default
disposition the process dies right there; with a handler installed the
faulting access retries after the handler returns (so a handler that
repairs the mapping — e.g. by calling ``mmap`` — resumes the program,
just like on real hardware).
"""

from __future__ import annotations

from repro.errors import EFAULT, SysError
from repro.kernel.signals import SIGKILL, SIGSEGV
from repro.mem.addrspace import Fault
from repro.mem.frames import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.share import vmshare
from repro.sim.effects import kdelay, udelay


def _words(nbytes: int) -> int:
    return (nbytes + 3) // 4


class FaultMixin:
    """Kernel methods for translating and touching user memory."""

    #: lazily interned Delay for a one-word user access — the cost is a
    #: constant of the cost model, so the hottest guest operations
    #: (load_word/store_word) skip both the arithmetic and the cache
    #: lookup in :func:`udelay`
    _word_delay = None

    # ------------------------------------------------------------------
    # the central translate-or-fault path

    def vm_hit(self, proc, vaddr: int, write: bool):
        """Plain-function TLB probe: the Frame on a usable hit, else None.

        The hot user load/store paths call this before falling into the
        :meth:`vm_handle` generator, so a warm-TLB access pays no
        generator setup at all.  Statistics match ``vm_handle`` exactly
        (``lookup`` counts the hit or miss); a ``None`` return must be
        followed by ``vm_handle(..., prelooked=True)`` so the probe is
        not re-counted.
        """
        # open-coded TLB.lookup (same statistics): this probe runs on
        # every user load/store, so the extra call layer shows up
        tlb = proc.cpu.tlb
        entry = tlb._entries.get((proc.vm.asid, vaddr >> PAGE_SHIFT))
        if entry is None:
            tlb.misses += 1
            return None
        tlb.hits += 1
        if not write or entry.writable:
            return self.machine.frames.get(entry.pfn)
        return None

    def vm_handle(self, proc, vaddr: int, write: bool, user: bool, info=None,
                  prelooked: bool = False):
        """Generator: return the Frame backing ``vaddr``, faulting as needed.

        ``info`` (optional dict) receives the final resolution —
        ``kind``/``pregion``/``page_index`` — so callers like
        :meth:`_copy_fault` need no separate ``find`` pass over the
        pregion lists.  ``prelooked`` means the caller already probed
        (and counted) the TLB via :meth:`vm_hit` and missed.
        """
        cpu = proc.cpu
        tlb = cpu.tlb
        asid = proc.vm.asid
        vpn = vaddr >> PAGE_SHIFT
        if not prelooked:
            entry = tlb.lookup(asid, vpn)
            if entry is not None and (not write or entry.writable):
                if info is not None:
                    info["kind"] = Fault.HIT
                    info["pregion"] = None
                    info["page_index"] = -1
                return self.machine.frames.get(entry.pfn)

        # Software refill: trap, walk the pregion lists under the lock.
        yield kdelay(self.costs.tlb_refill)
        locked = "none"
        if vmshare.sharing_vm(proc):
            yield from vmshare.read_acquire(proc)
            locked = "read"
        try:
            while True:
                res = proc.vm.resolve(vaddr, write)
                kind = res.kind
                if info is not None:
                    info["kind"] = kind
                    info["pregion"] = res.pregion
                    info["page_index"] = res.page_index
                if kind is Fault.HIT:
                    frame = res.pregion.region.pages[res.page_index]
                    writable = proc.vm.writable_now(res.pregion, res.page_index)
                    tlb.insert(asid, vpn, frame.pfn, writable)
                    return frame
                if kind is Fault.ZERO or kind is Fault.COW:
                    proc.faults += 1
                    self.stats["faults"] += 1
                    self.pcount(proc, "fault." + kind.value)
                    self.trace(
                        "fault", proc.pid, "%s @%#x" % (kind.value, vaddr)
                    )
                    fill = (
                        self.costs.page_zero if kind is Fault.ZERO
                        else self.costs.page_copy
                    )
                    yield kdelay(self.costs.fault_entry + fill)
                    try:
                        if self.fail("fault." + kind.value):
                            raise MemoryError("injected at fault." + kind.value)
                        frame = proc.vm.materialize(res, vaddr, write)
                    except MemoryError:
                        mode, locked = locked, "none"
                        yield from self._out_of_memory(proc, user, mode)
                        continue
                    self.pcount(proc, "pages_touched")
                    writable = proc.vm.writable_now(res.pregion, res.page_index)
                    tlb.insert(asid, vpn, frame.pfn, writable)
                    return frame
                if kind is Fault.GROW:
                    if locked == "read":
                        # Growth edits the pregion list: upgrade to the
                        # update lock and re-resolve (someone else may
                        # have grown the stack meanwhile).
                        yield from vmshare.read_release(proc)
                        yield from vmshare.update_acquire(proc)
                        locked = "update"
                        continue
                    proc.faults += 1
                    self.stats["faults"] += 1
                    self.stats["stack_grows"] += 1
                    self.pcount(proc, "fault.grow")
                    self.trace("fault", proc.pid, "grow @%#x" % vaddr)
                    yield kdelay(self.costs.fault_entry + self.costs.page_zero)
                    try:
                        if self.fail("fault.grow"):
                            raise MemoryError("injected at fault.grow")
                        frame = proc.vm.materialize(res, vaddr, write)
                    except MemoryError:
                        mode, locked = locked, "none"
                        yield from self._out_of_memory(proc, user, mode)
                        continue
                    self.pcount(proc, "pages_touched")
                    tlb.insert(asid, vpn, frame.pfn, True)
                    return frame
                # SEGV
                if not user:
                    raise SysError(EFAULT, "bad user address %#x" % vaddr)
                if locked == "read":
                    yield from vmshare.read_release(proc)
                elif locked == "update":
                    yield from vmshare.update_release(proc)
                locked = "none"
                self.stats["segv"] += 1
                self.pcount(proc, "fault.segv")
                self.trace("fault", proc.pid, "segv @%#x" % vaddr)
                self.psignal(proc, SIGSEGV)
                yield from self.deliver_pending(proc)
                # A handler survived and (maybe) repaired the mapping:
                # retry the access, taking the lock again.
                if vmshare.sharing_vm(proc):
                    yield from vmshare.read_acquire(proc)
                    locked = "read"
        finally:
            if locked == "read":
                yield from vmshare.read_release(proc)
            elif locked == "update":
                yield from vmshare.update_release(proc)

    def _out_of_memory(self, proc, user: bool, locked: str):
        """Generator: physical memory exhausted mid-fault.

        Kernel copies report ``ENOMEM``; a faulting user access kills the
        process (SIGKILL — there is nowhere to return to), the classic
        no-swap OOM policy.  Locks are dropped first so the rest of the
        group keeps running.
        """
        if locked == "read":
            yield from vmshare.read_release(proc)
        elif locked == "update":
            yield from vmshare.update_release(proc)
        self.stats["oom_kills"] += 1
        if not user:
            from repro.errors import ENOMEM

            raise SysError(ENOMEM, "out of physical memory")
        self.psignal(proc, SIGKILL)
        yield from self.deliver_pending(proc)
        raise AssertionError("unreachable: SIGKILL delivered")  # pragma: no cover

    # ------------------------------------------------------------------
    # TLB maintenance for non-shared spaces

    def tlb_invalidate_range(self, proc, vpn_lo: int, vpn_hi: int):
        """Generator: invalidate one VPN window of a non-shared space.

        No shootdown protocol is needed — nobody else runs this address
        space — but stale translations may linger on CPUs the process
        migrated away from.  The indexed mode drops just the affected
        window; the ``vm_index="linear"`` ablation reproduces the old
        full per-ASID flush bit-identically.
        """
        if self.machine.vm_index == "linear":
            for cpu in self.machine.cpus:
                cpu.tlb.flush_asid(proc.vm.asid)
        else:
            self.machine.tlb_flush_range(proc.vm.asid, vpn_lo, vpn_hi)
        yield kdelay(self.costs.tlb_flush_local)

    # ------------------------------------------------------------------
    # kernel <-> user copies (used by read/write/exec argument paths)

    def _copy_fault(self, proc, addr: int, write: bool, touched):
        """Generator: resolve one page of a multi-page kernel copy.

        A copy that faults in page N and then fails on page N+1 (ENOMEM,
        EFAULT) must not keep the frames it already grabbed: ``touched``
        accumulates pages this copy newly materialized, and any SysError
        rolls them all back before propagating.  Only demand-zero pages
        of an already-found pregion qualify — a COW break was resident
        before, and stack growth changes the pregion list itself.

        The resolution that ``vm_handle`` already performed tells us
        which case we hit, so no second walk of the pregion lists is
        needed.
        """
        frame = self.vm_hit(proc, addr, write)
        if frame is not None:
            return frame  # a warm hit can never have materialized a page
        info = {}
        try:
            frame = yield from self.vm_handle(
                proc, addr, write=write, user=False, info=info, prelooked=True
            )
        except SysError:
            self._rollback_copy_pages(proc, touched)
            raise
        if info.get("kind") is Fault.ZERO:
            touched.append(
                (info["pregion"], info["page_index"], addr >> PAGE_SHIFT)
            )
        return frame

    def _rollback_copy_pages(self, proc, touched) -> None:
        """Release pages a failed multi-page kernel copy materialized.

        A page still singly referenced reverts to demand-zero (frame
        released, TLB entry flushed everywhere); a frame some other
        space holds a COW reference to meanwhile stays.
        """
        for pregion, index, vpn in reversed(touched):
            frame = pregion.region.pages[index]
            if frame is None or frame.refcount != 1:
                continue
            pregion.region.pages[index] = None
            self.machine.frames.release(frame)
            self.machine.tlb_flush_page(proc.vm.asid, vpn)

    def copyin(self, proc, vaddr: int, nbytes: int):
        """Generator: fetch ``nbytes`` of user memory into host bytes."""
        out = bytearray()
        addr = vaddr
        remaining = nbytes
        touched = []
        while remaining > 0:
            frame = yield from self._copy_fault(proc, addr, False, touched)
            offset = addr & PAGE_MASK
            take = min(remaining, PAGE_SIZE - offset)
            out += frame.data[offset:offset + take]
            yield kdelay(self.costs.copyio_per_word * _words(take))
            addr += take
            remaining -= take
        return bytes(out)

    def copyout(self, proc, vaddr: int, payload: bytes):
        """Generator: store host bytes into user memory."""
        addr = vaddr
        index = 0
        touched = []
        while index < len(payload):
            frame = yield from self._copy_fault(proc, addr, True, touched)
            offset = addr & PAGE_MASK
            take = min(len(payload) - index, PAGE_SIZE - offset)
            frame.data[offset:offset + take] = payload[index:index + take]
            yield kdelay(self.costs.copyio_per_word * _words(take))
            addr += take
            index += take
        return len(payload)

    # ------------------------------------------------------------------
    # user-mode memory operations (the program's loads and stores)

    def user_read(self, proc, vaddr: int, nbytes: int):
        """Generator: a user-mode load of ``nbytes`` (may span pages).

        The within-one-page case — almost every access — skips the
        span loop and the bytearray staging; cost and TLB accounting
        are identical either way.
        """
        offset = vaddr & PAGE_MASK
        if 0 < nbytes <= PAGE_SIZE - offset:
            yield udelay(
                self.costs.mem_access + self.costs.mem_per_word * _words(nbytes)
            )
            frame = self.vm_hit(proc, vaddr, False)
            if frame is None:
                frame = yield from self.vm_handle(
                    proc, vaddr, write=False, user=True, prelooked=True
                )
            return bytes(frame.data[offset:offset + nbytes])
        out = bytearray()
        addr = vaddr
        remaining = nbytes
        while remaining > 0:
            offset = addr & PAGE_MASK
            take = min(remaining, PAGE_SIZE - offset)
            yield udelay(self.costs.mem_access + self.costs.mem_per_word * _words(take))
            frame = self.vm_hit(proc, addr, False)
            if frame is None:
                frame = yield from self.vm_handle(
                    proc, addr, write=False, user=True, prelooked=True
                )
            out += frame.data[offset:offset + take]
            addr += take
            remaining -= take
        return bytes(out)

    def user_write(self, proc, vaddr: int, payload: bytes):
        """Generator: a user-mode store (single-page fast path as above)."""
        nbytes = len(payload)
        offset = vaddr & PAGE_MASK
        if 0 < nbytes <= PAGE_SIZE - offset:
            yield udelay(
                self.costs.mem_access + self.costs.mem_per_word * _words(nbytes)
            )
            frame = self.vm_hit(proc, vaddr, True)
            if frame is None:
                frame = yield from self.vm_handle(
                    proc, vaddr, write=True, user=True, prelooked=True
                )
            frame.data[offset:offset + nbytes] = payload
            return nbytes
        addr = vaddr
        index = 0
        while index < len(payload):
            offset = addr & PAGE_MASK
            take = min(len(payload) - index, PAGE_SIZE - offset)
            yield udelay(self.costs.mem_access + self.costs.mem_per_word * _words(take))
            frame = self.vm_hit(proc, addr, True)
            if frame is None:
                frame = yield from self.vm_handle(
                    proc, addr, write=True, user=True, prelooked=True
                )
            frame.data[offset:offset + take] = payload[index:index + take]
            addr += take
            index += take
        return len(payload)

    def user_load_word(self, proc, vaddr: int):
        """Generator: load an aligned 32-bit little-endian word.

        Single-page direct path in the :meth:`user_cas` idiom — same
        charged cost and same TLB accounting as ``user_read(.., 4)``,
        without the span loop, the bytearray staging or the extra
        generator frame.  A page-straddling (misaligned) word falls
        back to the general path.
        """
        offset = vaddr & PAGE_MASK
        if offset > PAGE_SIZE - 4:
            raw = yield from self.user_read(proc, vaddr, 4)
            return int.from_bytes(raw, "little")
        delay = self._word_delay
        if delay is None:
            delay = self._word_delay = udelay(
                self.costs.mem_access + self.costs.mem_per_word
            )
        yield delay
        frame = self.vm_hit(proc, vaddr, False)
        if frame is None:
            frame = yield from self.vm_handle(
                proc, vaddr, write=False, user=True, prelooked=True
            )
        return int.from_bytes(frame.data[offset:offset + 4], "little")

    def user_store_word(self, proc, vaddr: int, value: int):
        """Generator: store an aligned 32-bit little-endian word."""
        offset = vaddr & PAGE_MASK
        if offset > PAGE_SIZE - 4:
            yield from self.user_write(
                proc, vaddr, (value & 0xFFFFFFFF).to_bytes(4, "little")
            )
            return
        delay = self._word_delay
        if delay is None:
            delay = self._word_delay = udelay(
                self.costs.mem_access + self.costs.mem_per_word
            )
        yield delay
        frame = self.vm_hit(proc, vaddr, True)
        if frame is None:
            frame = yield from self.vm_handle(
                proc, vaddr, write=True, user=True, prelooked=True
            )
        frame.data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def user_cas(self, proc, vaddr: int, expected: int, new: int):
        """Generator: atomic compare-and-swap on a 32-bit word.

        Returns the value observed.  The read-modify-write happens with
        no intervening yield, which is the simulation's model of an
        interlocked bus operation.
        """
        yield udelay(self.costs.cas)
        frame = self.vm_hit(proc, vaddr, True)
        if frame is None:
            frame = yield from self.vm_handle(
                proc, vaddr, write=True, user=True, prelooked=True
            )
        offset = vaddr & PAGE_MASK
        old = int.from_bytes(frame.data[offset:offset + 4], "little")
        if old == expected:
            frame.data[offset:offset + 4] = (new & 0xFFFFFFFF).to_bytes(4, "little")
        return old

    def user_fetch_add(self, proc, vaddr: int, delta: int):
        """Generator: atomic fetch-and-add; returns the *previous* value."""
        yield udelay(self.costs.cas)
        frame = self.vm_hit(proc, vaddr, True)
        if frame is None:
            frame = yield from self.vm_handle(
                proc, vaddr, write=True, user=True, prelooked=True
            )
        offset = vaddr & PAGE_MASK
        old = int.from_bytes(frame.data[offset:offset + 4], "little")
        new = (old + delta) & 0xFFFFFFFF
        frame.data[offset:offset + 4] = new.to_bytes(4, "little")
        return old
