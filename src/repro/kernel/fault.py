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
just like on real hardware).  An atomic on a misaligned word posts
SIGBUS the same way.
"""

from __future__ import annotations

import struct

from repro.errors import EFAULT, ENOMEM, SimulationError, SysError
from repro.kernel.signals import SIGBUS, SIGKILL, SIGSEGV
from repro.mem.addrspace import Fault
from repro.mem.frames import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.share import vmshare
from repro.sim.effects import kdelay, udelay

#: an aligned 32-bit little-endian word, read and written in place in a
#: frame's bytes: no slice, no bytes object, one path on any host
WORD = struct.Struct("<I")
_unpack_word = WORD.unpack_from
_pack_word = WORD.pack_into


def _words(nbytes: int) -> int:
    """How many words a copy of ``nbytes`` moves (the copy-cost unit)."""
    return (nbytes + 3) // 4


def _page_spans(vaddr: int, nbytes: int):
    """Split the ``nbytes`` from ``vaddr`` on at page boundaries: yields
    ``(addr, offset, take)`` per page, ``offset`` being ``addr``'s
    offset within its page."""
    end = vaddr + nbytes
    addr = vaddr
    while addr < end:
        offset = addr & PAGE_MASK
        take = min(end - addr, PAGE_SIZE - offset)
        yield addr, offset, take
        addr += take


class FaultMixin:
    """Kernel methods for translating and touching user memory."""

    # ------------------------------------------------------------------
    # the central translate-or-fault path

    def vm_hit(self, proc, vaddr: int, write: bool):
        """Plain-function TLB probe: the Frame on a usable hit, else None.

        Every translation starts here and enters the :meth:`vm_handle`
        generator only on a miss, so a warm-TLB access pays no generator
        setup at all.  The probe counts the TLB hit or miss.  The entry
        carries its Frame; a hit on a freed one (a translation that
        outlived its page without a shootdown) is a simulator bug.
        """
        # the one live TLB probe, and the one place that counts hits and
        # misses: it runs on every user load/store, so it reads the
        # entry table directly rather than through a TLB method
        tlb = proc.cpu.tlb
        entry = tlb._entries.get((proc.vm.asid, vaddr >> PAGE_SHIFT))
        if entry is None:
            tlb.misses += 1
            return None
        tlb.hits += 1
        if not write or entry.writable:
            frame = entry.frame
            if frame.refcount > 0:
                return frame
            raise SimulationError("access to free frame %d" % frame.pfn)
        return None

    def vm_handle(self, proc, vaddr: int, write: bool, user: bool,
                  touched=None):
        """Generator: the slow path after a :meth:`vm_hit` miss; returns
        the Frame backing ``vaddr``, faulting as needed.

        ``touched`` (a kernel copy's rollback list) receives
        ``(pregion, page_index, vpn)`` when a demand-zero fill
        materializes the page.
        """
        cpu = proc.cpu
        asid = proc.vm.asid
        vpn = vaddr >> PAGE_SHIFT
        # Software refill: trap, walk the pregion lists under the lock.
        yield kdelay(self.costs.tlb_refill)
        locked = None
        try:
            while True:
                if locked is None and vmshare.sharing_vm(proc):
                    yield from vmshare.read_acquire(proc)
                    locked = "read"
                res = proc.vm.resolve(vaddr, write)
                kind = res.kind
                if kind is Fault.HIT:
                    frame = res.pregion.region.pages[res.page_index]
                    break
                if kind is Fault.GROW and locked == "read":
                    # Growth edits the pregion list: upgrade to the
                    # update lock and re-resolve (someone else may have
                    # grown the stack meanwhile).
                    locked = yield from self._vm_unlock(proc, locked)
                    yield from vmshare.update_acquire(proc)
                    locked = "update"
                    continue
                if kind is Fault.SEGV:
                    if not user:
                        raise SysError(EFAULT, "bad user address %#x" % vaddr)
                    locked = yield from self._vm_unlock(proc, locked)
                    self.stats["segv"] += 1
                    yield from self._fault_signal(proc, SIGSEGV, "segv", vaddr)
                    # A handler survived and (maybe) repaired the
                    # mapping: retry the access, taking the lock again.
                    continue
                # ZERO, COW or GROW: materialize the page
                proc.faults += 1
                self.stats["faults"] += 1
                if kind is Fault.GROW:
                    self.stats["stack_grows"] += 1
                site = "fault." + kind.value
                self.pcount(proc, site)
                self.trace("fault", proc.pid, "%s @%#x" % (kind.value, vaddr))
                fill = (
                    self.costs.page_copy if kind is Fault.COW
                    else self.costs.page_zero
                )
                yield kdelay(self.costs.fault_entry + fill)
                try:
                    if self.fail(site):
                        raise MemoryError("injected at " + site)
                    frame = proc.vm.materialize(res, vaddr, write)
                except MemoryError:
                    locked = yield from self._vm_unlock(proc, locked)
                    yield from self._out_of_memory(proc, user)
                    continue
                self.pcount(proc, "pages_touched")
                if touched is not None and kind is Fault.ZERO:
                    touched.append((res.pregion, res.page_index, vpn))
                break
            # Cache the translation in the CPU the fault began on.  A
            # private pregion under a shared ASID (the PRDA) is cached
            # only while its process runs there: the fault may have
            # blocked on the read lock and resumed on another CPU, and
            # the CPU drops the noted entry when the process leaves it
            # (CPU._drop_private_tlb).
            writable = proc.vm.writable_now(res.pregion, res.page_index)
            if res.shared or proc.vm.shared is None:
                cpu.tlb.insert(asid, vpn, frame, writable)
            elif proc.cpu is cpu:
                cpu.tlb.insert(asid, vpn, frame, writable)
                cpu.private_tlb.add((asid, vpn))
            return frame
        finally:
            yield from self._vm_unlock(proc, locked)

    @staticmethod
    def _vm_unlock(proc, locked):
        """The steps that drop the VM lock a fault holds (``"read"``,
        ``"update"`` or None), to ``yield from``; they return None, the
        unlocked state."""
        if locked == "read":
            return vmshare.read_release(proc)
        if locked == "update":
            return vmshare.update_release(proc)
        return ()

    def _fault_signal(self, proc, sig: int, what: str, vaddr: int):
        """Generator: a user access the hardware refuses, with no lock held.

        Counts and traces it, then posts ``sig`` and delivers it inline:
        the default disposition kills the process; a handler that
        returns lets the caller retry the access.
        """
        self.pcount(proc, "fault." + what)
        self.trace("fault", proc.pid, "%s @%#x" % (what, vaddr))
        self.psignal(proc, sig)
        yield from self.deliver_pending(proc)

    def _out_of_memory(self, proc, user: bool):
        """Generator: physical memory exhausted mid-fault (no lock held).

        Kernel copies report ``ENOMEM``; a faulting user access kills the
        process (SIGKILL — there is nowhere to return to), the classic
        no-swap OOM policy.
        """
        self.stats["oom_kills"] += 1
        if not user:
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
            self.machine.tlb_flush_asid(proc.vm.asid)
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
        """
        frame = self.vm_hit(proc, addr, write)
        if frame is not None:
            return frame  # a warm hit can never have materialized a page
        try:
            return (yield from self.vm_handle(
                proc, addr, write=write, user=False, touched=touched
            ))
        except SysError:
            self._rollback_copy_pages(proc, touched)
            raise

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
        touched = []
        for addr, offset, take in _page_spans(vaddr, nbytes):
            frame = yield from self._copy_fault(proc, addr, False, touched)
            out += frame.data[offset:offset + take]
            yield kdelay(self.costs.copyio_per_word * _words(take))
        return bytes(out)

    def copyout(self, proc, vaddr: int, payload: bytes):
        """Generator: store host bytes into user memory."""
        touched = []
        for addr, offset, take in _page_spans(vaddr, len(payload)):
            frame = yield from self._copy_fault(proc, addr, True, touched)
            start = addr - vaddr
            frame.data[offset:offset + take] = payload[start:start + take]
            yield kdelay(self.costs.copyio_per_word * _words(take))
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
                frame = yield from self.vm_handle(proc, vaddr, write=False, user=True)
            return bytes(frame.data[offset:offset + nbytes])
        out = bytearray()
        for addr, offset, take in _page_spans(vaddr, nbytes):
            yield udelay(self.costs.mem_access + self.costs.mem_per_word * _words(take))
            frame = self.vm_hit(proc, addr, False)
            if frame is None:
                frame = yield from self.vm_handle(proc, addr, write=False, user=True)
            out += frame.data[offset:offset + take]
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
                frame = yield from self.vm_handle(proc, vaddr, write=True, user=True)
            frame.data[offset:offset + nbytes] = payload
            return nbytes
        for addr, offset, take in _page_spans(vaddr, nbytes):
            yield udelay(self.costs.mem_access + self.costs.mem_per_word * _words(take))
            frame = self.vm_hit(proc, addr, True)
            if frame is None:
                frame = yield from self.vm_handle(proc, addr, write=True, user=True)
            start = addr - vaddr
            frame.data[offset:offset + take] = payload[start:start + take]
        return nbytes

    def user_load_word(self, proc, vaddr: int):
        """Generator: load a 32-bit little-endian word.

        An aligned word is read in place through :data:`WORD`, with the
        same charged cost and TLB accounting as ``user_read(.., 4)`` but
        without its staging or its generator frame.  A misaligned word,
        in one page or straddling two, takes the byte path.
        """
        if vaddr & 3:
            raw = yield from self.user_read(proc, vaddr, 4)
            return int.from_bytes(raw, "little")
        yield self._word_delay
        frame = self.vm_hit(proc, vaddr, False)
        if frame is None:
            frame = yield from self.vm_handle(proc, vaddr, write=False, user=True)
        return _unpack_word(frame.data, vaddr & PAGE_MASK)[0]

    def user_store_word(self, proc, vaddr: int, value: int):
        """Generator: store a 32-bit little-endian word (as above)."""
        if vaddr & 3:
            yield from self.user_write(
                proc, vaddr, (value & 0xFFFFFFFF).to_bytes(4, "little")
            )
            return
        yield self._word_delay
        frame = self.vm_hit(proc, vaddr, True)
        if frame is None:
            frame = yield from self.vm_handle(proc, vaddr, write=True, user=True)
        _pack_word(frame.data, vaddr & PAGE_MASK, value & 0xFFFFFFFF)

    def user_cas(self, proc, vaddr: int, expected: int, new: int):
        """Generator: atomic compare-and-swap on an aligned 32-bit word.

        Returns the value observed.  The read-modify-write happens with
        no intervening yield, which is the simulation's model of an
        interlocked bus operation.
        """
        yield self._cas_delay
        if vaddr & 3:
            yield from self._bus_error(proc, vaddr)
        frame = self.vm_hit(proc, vaddr, True)
        if frame is None:
            frame = yield from self.vm_handle(proc, vaddr, write=True, user=True)
        data = frame.data
        offset = vaddr & PAGE_MASK
        old = _unpack_word(data, offset)[0]
        if old == expected:
            _pack_word(data, offset, new & 0xFFFFFFFF)
        return old

    def user_fetch_add(self, proc, vaddr: int, delta: int):
        """Generator: atomic fetch-and-add; returns the *previous* value."""
        yield self._cas_delay
        if vaddr & 3:
            yield from self._bus_error(proc, vaddr)
        frame = self.vm_hit(proc, vaddr, True)
        if frame is None:
            frame = yield from self.vm_handle(proc, vaddr, write=True, user=True)
        data = frame.data
        offset = vaddr & PAGE_MASK
        old = _unpack_word(data, offset)[0]
        _pack_word(data, offset, (old + delta) & 0xFFFFFFFF)
        return old

    def _bus_error(self, proc, vaddr: int):
        """Generator: an interlocked operation on a misaligned word.

        The bus refuses it with SIGBUS, delivered like a SEGV.  A handler
        that returns re-executes the instruction, which faults again, so
        this never returns: the default disposition or a handler that
        exits ends the process.
        """
        while True:
            yield from self._fault_signal(proc, SIGBUS, "bus", vaddr)
