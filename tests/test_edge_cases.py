"""Edge cases and failure injection across the kernel."""

import pytest

from repro import (
    O_CREAT,
    O_RDWR,
    PR_SALL,
    SIGKILL,
    SIGUSR1,
    System,
    status_code,
    status_signal,
)
from repro.check.invariants import check_fd_refcounts
from repro.errors import EBADF, EFAULT, EINTR, EMFILE, ENOMEM
from repro.fs.fdtable import NOFILE
from tests.conftest import run_program


# ----------------------------------------------------------------------
# resource exhaustion


def test_oom_kills_faulting_process_not_machine():
    """Exhausting physical memory SIGKILLs the hog; siblings survive."""
    from repro.mem.frames import PAGE_SIZE

    def hog(api, arg):
        base = yield from api.mmap(4096 * PAGE_SIZE)  # more than RAM
        page = 0
        while True:
            yield from api.store_word(base + page * PAGE_SIZE, 1)
            page += 1

    def bystander(api, arg):
        yield from api.compute(300_000)
        return 7

    def main(api, out):
        yield from api.fork(bystander)
        yield from api.fork(hog)
        statuses = []
        for _ in range(2):
            _, status = yield from api.wait()
            statuses.append(status)
        out["statuses"] = statuses
        return 0

    out, sim = run_program(main, ncpus=2, memory_mb=2)
    assert sim.stats["oom_kills"] >= 1
    sigs = {status_signal(s) for s in out["statuses"]}
    codes = {status_code(s) for s in out["statuses"]}
    assert SIGKILL in sigs, "the hog must die by SIGKILL"
    assert 7 in codes, "the bystander must finish normally"


def test_descriptor_table_exhaustion_is_emfile():
    def main(api, out):
        fd = yield from api.creat("/f")
        count = 1
        while True:
            rc = yield from api.dup(fd)
            if rc == -1:
                break
            count += 1
        out["count"] = count
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EMFILE
    assert out["count"] == NOFILE


@pytest.mark.parametrize("newfd", [-1, NOFILE, 1000])
def test_dup2_to_out_of_range_descriptor_takes_no_reference(newfd):
    """dup2 onto a descriptor outside the table fails with EBADF before
    it holds the file: the write end's refcount is unchanged, so closing
    it still gives the reader EOF."""
    sim = System(ncpus=2)

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        writer = api.proc.uarea.fdtable.get(wfd)
        refs = writer.refcount
        out["rc"] = yield from api.dup2(wfd, newfd)
        out["errno"] = yield from api.errno()
        out["refs"] = (refs, writer.refcount)
        out["findings"] = check_fd_refcounts(sim)
        yield from api.close(wfd)
        out["eof"] = yield from api.read(rfd, 16)
        return 0

    out, _ = run_program(main, sim=sim)
    assert out["rc"] == -1 and out["errno"] == EBADF
    assert out["refs"][1] == out["refs"][0]
    assert out["findings"] == []
    assert out["eof"] == b""


def test_dup2_over_the_last_write_end_gives_the_reader_eof():
    """A file dup2 displaces is closed the way close() closes it, pipe
    endpoint bookkeeping included."""
    def main(api, out):
        rfd, wfd = yield from api.pipe()
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        out["rc"], out["wfd"] = (yield from api.dup2(fd, wfd)), wfd
        out["eof"] = yield from api.read(rfd, 16)
        return 0

    out, _ = run_program(main)
    assert out["rc"] == out["wfd"]
    assert out["eof"] == b""


def test_copyio_to_unmapped_buffer_is_efault():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"data")
        yield from api.lseek(fd, 0, 0)
        rc = yield from api.read_v(fd, 0x6000_0000, 4)  # unmapped buffer
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == EFAULT


@pytest.mark.parametrize("call", ["mmap", "sbrk", "shmat"])
def test_address_space_exhaustion_is_enomem(call):
    """A request the map arena or the data ceiling cannot hold fails
    with ENOMEM instead of crashing the simulator: the cursors and the
    pregion lists stay as they were and the group's update lock is free."""
    from repro import IPC_CREAT, IPC_PRIVATE
    from repro.mem import layout
    from repro.mem.frames import PAGE_SIZE
    from repro.mem.region import RegionType

    def member(api, out):
        vm = api.proc.vm
        if call == "sbrk":
            # the growth would also run into this mapping
            yield from api.mmap(PAGE_SIZE)
        if call == "shmat":
            # leave one page of arena: a two-page segment no longer fits
            yield from api.mmap(layout.MAP_LIMIT - layout.MAP_BASE - PAGE_SIZE)
            shmid = yield from api.shmget(IPC_PRIVATE, 2 * PAGE_SIZE, IPC_CREAT)
        data, _shared = vm.find_by_type(RegionType.DATA)

        def layout_now():
            return (
                vm.shared._next_map_base, data.vhigh,
                list(vm.private), list(vm.shared.pregions),
            )

        before = layout_now()
        if call == "mmap":
            rc = yield from api.mmap(1 << 30)  # the arena is 512 MB
        elif call == "sbrk":
            rc = yield from api.sbrk(1 << 30)  # past the data ceiling
        else:
            rc = yield from api.shmat(shmid)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        out["unchanged"] = layout_now() == before
        out["update_locked"] = api.proc.shaddr.vm_lock.updating
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert (out["rc"], out["errno"]) == (-1, ENOMEM)
    assert out["unchanged"]
    assert not out["update_locked"]


def test_group_maps_again_after_a_member_overflows_the_arena():
    """After a PR_SALL member's oversized mmap fails, the group's next
    mmap takes the untouched cursor, under a free update lock."""
    from repro.mem import layout

    def member(api, out):
        out["rc"] = yield from api.mmap(1 << 30)
        return 0

    def main(api, out):
        yield from api.sproc(member, PR_SALL, out)
        yield from api.wait()
        base = yield from api.mmap(4096)
        yield from api.store_word(base, 7)
        out["base"] = base
        out["value"] = yield from api.load_word(base)
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["base"] == layout.MAP_BASE
    assert out["value"] == 7


# ----------------------------------------------------------------------
# signal / syscall interactions


def test_wait_interrupted_by_signal_is_eintr():
    def slow_child(api, arg):
        yield from api.compute(500_000)
        return 0

    def waiter(api, out):
        def handler(api, sig):
            return
            yield

        yield from api.signal(SIGUSR1, handler)
        yield from api.fork(slow_child)
        rc = yield from api.wait()
        if rc == -1:
            out["errno"] = yield from api.errno()
        yield from api.wait()  # actually reap
        return 0

    def main(api, out):
        pid = yield from api.fork(waiter, out)
        yield from api.compute(50_000)
        yield from api.kill(pid, SIGUSR1)
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out.get("errno") == EINTR


def test_segv_handler_can_repair_mapping_and_resume():
    """Section-6.2-adjacent: retrying the faulting access after the
    handler runs lets a handler that maps the page fix the program."""
    target = 0x3000_0000  # first mmap lands here

    def main(api, out):
        from repro import SIGSEGV

        def repair(api, sig):
            base = yield from api.mmap(4096)
            assert base == target, hex(base)

        yield from api.signal(SIGSEGV, repair)
        yield from api.store_word(target, 99)  # faults, repaired, retried
        out["value"] = yield from api.load_word(target)
        return 0

    out, _ = run_program(main)
    assert out["value"] == 99


@pytest.mark.parametrize("op", ["cas", "fetch_add"])
def test_misaligned_atomic_is_sigbus(op):
    """A page-straddling atomic word posts SIGBUS (default: death) and
    leaves both words, and the size of the page's frame, as they were."""
    from repro import SIGBUS
    from repro.mem.frames import PAGE_SIZE

    def member(api, base):
        if op == "cas":
            yield from api.cas(base + PAGE_SIZE - 2, 0x1122, 0x3344_5566)
        else:
            yield from api.fetch_add(base + PAGE_SIZE - 2, 1)
        return 0

    def main(api, out):
        base = yield from api.mmap(2 * PAGE_SIZE)
        # the two bytes just below the page boundary read as 0x1122
        yield from api.store_word(base + PAGE_SIZE - 4, 0x1122_0000)
        yield from api.store_word(base + PAGE_SIZE, 0x7788_99AA)
        yield from api.sproc(member, PR_SALL, base)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        out["low"] = yield from api.load_word(base + PAGE_SIZE - 4)
        out["high"] = yield from api.load_word(base + PAGE_SIZE)
        pregion, _shared = api.proc.vm.find(base)
        out["sizes"] = [len(frame.data) for frame in pregion.region.pages]
        return 0

    out, _ = run_program(main)
    assert out["sig"] == SIGBUS
    assert (out["low"], out["high"]) == (0x1122_0000, 0x7788_99AA)
    assert out["sizes"] == [PAGE_SIZE, PAGE_SIZE]


def test_each_fault_kind_is_counted_and_traced():
    """One repaired SEGV, demand-zero, copy-on-write and stack-growth
    fault each, as the proc kstat counters, the kernel stats and the
    trace record them (the benchmark workloads take demand-zero only)."""
    from repro import SIGSEGV
    from repro.mem import layout
    from repro.mem.frames import PAGE_SIZE
    from repro.sim.trace import Tracer

    target = layout.MAP_BASE  # the first mmap lands here
    stack_base = layout.stack_slot(0) - layout.INITIAL_STACK_PAGES * PAGE_SIZE
    below_stack = stack_base - 4

    def child(api, arg):
        yield from api.getpid()
        return 0

    def main(api, out):
        def repair(api, sig):
            yield from api.mmap(PAGE_SIZE)

        yield from api.signal(SIGSEGV, repair)
        yield from api.store_word(target, 1)  # SEGV, repaired: then ZERO
        yield from api.fork(child)
        yield from api.store_word(target, 2)  # COW
        yield from api.wait()
        yield from api.store_word(below_stack, 3)  # GROW
        out["values"] = [
            (yield from api.load_word(target)),
            (yield from api.load_word(below_stack)),
        ]
        return 0

    sim = System(ncpus=2)
    tracer = Tracer.attach(sim.kernel)
    out, _ = run_program(main, sim=sim)
    assert out["values"] == [2, 3]
    counts = {
        name: sim.kstat.get("proc", 1, name)
        for name in ("fault.zero", "fault.cow", "fault.grow", "fault.segv",
                     "pages_touched")
    }
    assert counts == {
        "fault.zero": 1, "fault.cow": 1, "fault.grow": 1, "fault.segv": 1,
        "pages_touched": 3,
    }
    stats = sim.stats
    assert (stats["faults"], stats["stack_grows"], stats["segv"]) == (3, 1, 1)
    details = [event.detail for event in tracer.events("fault", pid=1)]
    assert details == [
        "segv @%#x" % target, "zero @%#x" % target,
        "cow @%#x" % target, "grow @%#x" % below_stack,
    ]


def test_kill_all_members_of_group():
    def member(api, arg):
        yield from api.pause()
        return 0

    def main(api, out):
        pids = []
        for _ in range(3):
            pid = yield from api.sproc(member, PR_SALL)
            pids.append(pid)
        yield from api.compute(30_000)
        for pid in pids:
            yield from api.kill(pid, SIGKILL)
        sigs = []
        for _ in pids:
            _, status = yield from api.wait()
            sigs.append(status_signal(status))
        out["sigs"] = sigs
        return 0

    out, sim = run_program(main, ncpus=2)
    assert out["sigs"] == [SIGKILL] * 3
    assert sim.stats["groups_freed"] == 1


# ----------------------------------------------------------------------
# groups under stress


def test_deep_group_of_32_members():
    def member(api, ctx):
        base, idx = ctx
        yield from api.fetch_add(base, idx)
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        n = 32
        for idx in range(1, n + 1):
            yield from api.sproc(member, PR_SALL, (base, idx))
        for _ in range(n):
            yield from api.wait()
        out["sum"] = yield from api.load_word(base)
        out["expected"] = n * (n + 1) // 2
        return 0

    out, _ = run_program(main, ncpus=4)
    assert out["sum"] == out["expected"]


def test_chained_sproc_tree():
    """Members sproc their own members; everything lands in one group."""

    def leaf(api, base):
        yield from api.fetch_add(base, 1)
        return 0

    def middle(api, base):
        yield from api.sproc(leaf, PR_SALL, base)
        yield from api.sproc(leaf, PR_SALL, base)
        yield from api.fetch_add(base, 1)
        yield from api.wait()
        yield from api.wait()
        return 0

    def main(api, out):
        base = yield from api.mmap(4096)
        yield from api.sproc(middle, PR_SALL, base)
        yield from api.sproc(middle, PR_SALL, base)
        yield from api.wait()
        yield from api.wait()
        out["count"] = yield from api.load_word(base)
        return 0

    out, sim = run_program(main, ncpus=4)
    assert out["count"] == 6
    assert sim.stats["groups_created"] == 1, "one group for the whole tree"


def test_member_closing_then_reopening_fd_slot():
    """Close + open churn through the sharing protocol stays coherent."""

    def churner(api, arg):
        for round_number in range(5):
            fd = yield from api.open("/churn", O_RDWR | O_CREAT)
            yield from api.write(fd, b"round%d" % round_number)
            yield from api.close(fd)
        return 0

    def main(api, out):
        yield from api.sproc(churner, PR_SALL)
        yield from api.wait()
        yield from api.getpid()  # sync
        # slot 0 must be empty again (open/close pairs balanced)
        rc = yield from api.read(0, 4)
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        st = yield from api.stat("/churn")
        out["size"] = st["size"]
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == EBADF
    assert out["size"] == len(b"round4")


def test_fork_bomb_is_contained_by_proc_table():
    from repro.errors import SimulationError

    def bomber(api, arg):
        while True:
            rc = yield from api.fork(bomber)
            if rc == -1:
                return 1

    sim = System(ncpus=2)
    sim.kernel.proc_table.max_procs = 40
    sim.spawn(bomber)
    with pytest.raises(SimulationError):
        sim.run(max_events=2_000_000)


def test_zombie_children_do_not_leak_frames():
    def child(api, arg):
        base = yield from api.mmap(8 * 4096)
        for page in range(8):
            yield from api.store_word(base + page * 4096, page)
        return 0

    def main(api, out):
        for _ in range(5):
            yield from api.fork(child)
            yield from api.wait()
        out["frames"] = api.kernel.machine.frames.allocated
        return 0

    out, sim = run_program(main)
    # only init's own pages remain (PRDA + touched stack pages etc.)
    assert out["frames"] < 20


def test_group_teardown_releases_all_shared_frames():
    def member(api, arg):
        base = yield from api.mmap(16 * 4096)
        for page in range(16):
            yield from api.store_word(base + page * 4096, page)
        return 0

    def launcher(api, out):
        yield from api.sproc(member, PR_SALL)
        yield from api.wait()
        return 0

    def main(api, out):
        yield from api.fork(launcher, out)
        yield from api.wait()
        out["frames"] = api.kernel.machine.frames.allocated
        return 0

    out, sim = run_program(main)
    assert sim.stats["groups_freed"] == 1
    assert out["frames"] < 20, "shared pregions must be freed with the group"
