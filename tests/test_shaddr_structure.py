"""Figure 5 / section 6.1: the shared address block, field for field.

The paper prints ``shaddr_t`` in full; these tests pin the structure and
its lifecycle invariants so the reproduction cannot silently drift from
the published layout.
"""

import pytest

from repro import O_CREAT, O_RDWR, PR_SALL
from repro.share.shaddr import SharedAddressBlock
from repro.sync.semaphore import Semaphore
from repro.sync.sharedlock import SharedReadLock
from repro.sync.spinlock import SpinLock
from tests.conftest import run_program


def fresh_block():
    from repro.sim.machine import Machine

    machine = Machine(ncpus=2)

    class _Waker:
        def wakeup(self, proc):
            pass

    return SharedAddressBlock(machine, _Waker())


# ----------------------------------------------------------------------
# the paper's fields


def test_pregion_handling_fields():
    """s_region + the shared-read-lock counters (s_acclck, s_updwait,
    s_acccnt, s_waitcnt) from the paper's listing."""
    block = fresh_block()
    assert block.shared_vm.pregions == []  # s_region
    lock = block.vm_lock
    assert isinstance(lock, SharedReadLock)
    assert isinstance(lock._acclck, SpinLock)  # s_acclck
    assert isinstance(lock._updwait, Semaphore)  # s_updwait
    assert lock._acccnt == 0  # s_acccnt
    assert lock._waitcnt == 0  # s_waitcnt


def test_generic_shared_process_fields():
    """s_plink, s_refcnt, s_listlock."""
    block = fresh_block()
    assert block._members == []  # s_plink
    assert block.s_refcnt == 0
    assert isinstance(block.s_listlock, SpinLock)


def test_file_update_fields():
    """s_fupdsema single-threads open-file updating; s_ofile/s_pofile are
    the descriptor copies."""
    block = fresh_block()
    assert isinstance(block.s_fupdsema, Semaphore)
    assert block.s_fupdsema.value == 1, "semaphore starts open"
    assert block.s_ofile == []
    assert block.s_pofile == []


def test_directory_and_misc_fields():
    """s_cdir, s_rdir, s_rupdlock, s_cmask, s_limit, s_uid, s_gid."""
    block = fresh_block()
    assert block.s_cdir is None
    assert block.s_rdir is None
    assert isinstance(block.s_rupdlock, SpinLock)
    assert block.s_cmask == 0
    assert block.s_limit == 0
    assert block.s_uid == 0
    assert block.s_gid == 0


# ----------------------------------------------------------------------
# lifecycle invariants (paper: "dynamically allocated the first time
# that a process invokes the sproc(2) system call ... thrown away once
# the last member exits")


def test_block_allocated_on_first_sproc_and_freed_with_last_member():
    observed = {}

    def child(api, arg):
        yield from api.compute(100)
        return 0

    def main(api, out):
        assert api.proc.shaddr is None
        yield from api.sproc(child, PR_SALL)
        block = api.proc.shaddr
        out["allocated"] = block is not None
        out["refcnt_during"] = block.s_refcnt
        out["linked"] = api.proc in block._members
        yield from api.wait()
        out["refcnt_after_child"] = block.s_refcnt
        return 0

    out, sim = run_program(main)
    assert out["allocated"]
    assert out["refcnt_during"] == 2
    assert out["linked"]
    assert out["refcnt_after_child"] == 1
    assert sim.stats["groups_freed"] == 1


def test_proc_entry_points_at_block_and_members_share_it():
    blocks = []

    def child(api, arg):
        blocks.append(api.proc.shaddr)
        yield from api.compute(10)
        return 0

    def main(api, out):
        yield from api.sproc(child, PR_SALL)
        blocks.append(api.proc.shaddr)
        yield from api.wait()
        return 0

    run_program(main)
    assert blocks[0] is blocks[1], "one shaddr_t per group"


def test_block_holds_reference_counts_for_files_and_inodes():
    """Paper: 'Those resources which have reference counts (file
    descriptors and inodes) have the count bumped one for the shared
    address block', preventing the updater-exits-early race."""

    def opener(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        file = api.proc.uarea.fdtable.get(fd)
        out["refs_after_open"] = file.refcount
        out["file"] = file
        return 0  # exiting releases *this member's* reference only

    def main(api, out):
        yield from api.sproc(opener, PR_SALL, out)
        yield from api.wait()
        # updater is gone; the block still holds the file for us
        out["refs_after_exit"] = out["file"].refcount
        yield from api.getpid()  # sync our own table from s_ofile
        out["mine"] = api.proc.uarea.fdtable.get(0) is out["file"]
        return 0

    out, _ = run_program(main)
    # opener's table + shaddr copy (+ main's table after its own open sync)
    assert out["refs_after_open"] >= 2
    assert out["refs_after_exit"] >= 1, "the block kept the file alive"
    assert out["mine"]


def test_block_holds_directory_inode_references():
    def mover(api, arg):
        yield from api.chdir("/sub")
        return 0

    def main(api, out):
        yield from api.mkdir("/sub")
        sub = api.kernel.fs.namei("/sub", api.kernel.fs.root)
        before = sub.refcount
        yield from api.sproc(mover, PR_SALL)
        yield from api.wait()
        block = api.proc.shaddr
        out["s_cdir_is_sub"] = block.s_cdir is sub
        out["ref_grew"] = sub.refcount > before
        return 0

    out, _ = run_program(main)
    assert out["s_cdir_is_sub"]
    assert out["ref_grew"]


def test_update_counters_track_resource_changes():
    def changer(api, arg):
        yield from api.umask(0o077)
        yield from api.chdir("/")
        fd = yield from api.open("/x", O_RDWR | O_CREAT)
        return 0

    def main(api, out):
        yield from api.sproc(changer, PR_SALL)
        yield from api.wait()
        block_stats = dict(api.proc.shaddr.updates)
        out["stats"] = block_stats
        return 0

    out, _ = run_program(main)
    assert out["stats"]["umask"] == 1
    assert out["stats"]["dir"] == 1
    assert out["stats"]["fds"] == 1


def test_freeing_the_block_closes_a_pipe_end_it_held_last():
    """The block's ``s_ofile`` reference can be a pipe end's last one
    (every member closed the descriptor): freeing the block closes the
    end, so a reader sees EOF."""
    from repro.fs.fdtable import FDTable
    from repro.fs.file import File, O_WRONLY
    from repro.fs.inode import Inode, InodeType
    from repro.fs.pipe import Pipe

    block = fresh_block()
    inode = Inode(InodeType.FIFO, mode=0o600)
    pipe = inode.fifo = Pipe(block.shared_vm.machine, waker=None)
    table = FDTable(4)
    fd = table.alloc(File(inode, O_WRONLY))
    block.update_ofile(table)
    table.remove(fd).release()
    assert pipe.writers == 1
    block.free()
    assert pipe.writers == 0
    read = pipe.read(None, 16)
    with pytest.raises(StopIteration) as eof:
        next(read)
    assert eof.value.value == b""


def test_freeing_nonempty_block_is_rejected():
    from repro.errors import SimulationError

    block = fresh_block()

    class _Proc:
        pid = 1

    block.add_member(_Proc())
    with pytest.raises(SimulationError):
        block.free()
