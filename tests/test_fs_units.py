"""Direct unit tests for the filesystem substrate (no kernel)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    EACCES,
    EEXIST,
    ENAMETOOLONG,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    SysError,
)
from repro.fs.fdtable import FDTable
from repro.fs.file import File, O_RDONLY, O_RDWR, O_WRONLY
from repro.fs.fsys import Credentials, FileSystem
from repro.fs.inode import Inode, InodeType


@pytest.fixture
def fs():
    return FileSystem()


# ----------------------------------------------------------------------
# namei


def test_root_resolves(fs):
    assert fs.namei("/", fs.root) is fs.root


def test_nested_create_and_lookup(fs):
    fs.mkdir_p("/usr/local/bin")
    node = fs.namei("/usr/local/bin", fs.root)
    assert node.itype is InodeType.DIR


def test_relative_lookup_uses_cdir(fs):
    sub = fs.mkdir_p("/home/user")
    fs.add_file("/home/user/notes.txt", b"hi")
    found = fs.namei("notes.txt", sub)
    assert found.data == b"hi"


def test_dot_and_dotdot(fs):
    sub = fs.mkdir_p("/a/b")
    assert fs.namei(".", sub) is sub
    assert fs.namei("..", sub) is fs.namei("/a", fs.root)
    assert fs.namei("../..", sub) is fs.root
    assert fs.namei("../../..", sub) is fs.root, "cannot climb above root"


def test_chroot_barrier_in_walk(fs):
    jail = fs.mkdir_p("/jail")
    fs.add_file("/secret", b"top")
    with pytest.raises(SysError) as excinfo:
        fs.namei("../secret", jail, rdir=jail)
    assert excinfo.value.errno == ENOENT


def test_missing_component(fs):
    with pytest.raises(SysError) as excinfo:
        fs.namei("/nope/deeper", fs.root)
    assert excinfo.value.errno == ENOENT


def test_file_used_as_directory(fs):
    fs.add_file("/plain", b"")
    with pytest.raises(SysError) as excinfo:
        fs.namei("/plain/sub", fs.root)
    assert excinfo.value.errno == ENOTDIR


def test_long_path_rejected(fs):
    with pytest.raises(SysError) as excinfo:
        fs.namei("/" + "x" * 2000, fs.root)
    assert excinfo.value.errno == ENAMETOOLONG


def test_long_component_rejected(fs):
    with pytest.raises(SysError) as excinfo:
        fs.namei("/" + "y" * 300, fs.root)
    assert excinfo.value.errno == ENAMETOOLONG


def test_search_permission_enforced(fs):
    locked = fs.mkdir_p("/locked")
    locked.mode = 0o700
    locked.uid = 0
    fs.add_file("/locked/f", b"")
    nobody = Credentials(uid=42, gid=42)
    with pytest.raises(SysError) as excinfo:
        fs.namei("/locked/f", fs.root, cred=nobody)
    assert excinfo.value.errno == EACCES


def test_create_duplicate_is_eexist(fs):
    fs.add_file("/dup", b"")
    with pytest.raises(SysError) as excinfo:
        fs.create(fs.root, "dup", InodeType.REG, 0o644)
    assert excinfo.value.errno == EEXIST


def test_unlink_nonempty_dir_rejected(fs):
    fs.mkdir_p("/d")
    fs.add_file("/d/child", b"")
    with pytest.raises(SysError) as excinfo:
        fs.unlink(fs.root, "d")
    assert excinfo.value.errno == ENOTEMPTY


def test_unlink_drops_nlink(fs):
    node = fs.add_file("/gone", b"")
    assert node.nlink == 1
    fs.unlink(fs.root, "gone")
    assert node.nlink == 0
    assert not node.live


# ----------------------------------------------------------------------
# inode data


def test_write_read_at_offsets():
    node = Inode(InodeType.REG)
    node.write_at(0, b"hello")
    node.write_at(10, b"world")
    assert node.read_at(0, 5) == b"hello"
    assert node.read_at(5, 5) == b"\x00" * 5
    assert node.read_at(10, 5) == b"world"
    assert node.size == 15
    assert node.read_at(100, 5) == b""


def test_inode_permission_classes():
    node = Inode(InodeType.REG, mode=0o640, uid=10, gid=20)
    from repro.fs.inode import IREAD, IWRITE

    node.access(10, 99, IWRITE)  # owner: rw
    node.access(11, 20, IREAD)  # group: r
    with pytest.raises(SysError):
        node.access(11, 20, IWRITE)  # group: no w
    with pytest.raises(SysError):
        node.access(99, 99, IREAD)  # other: nothing
    node.access(0, 0, IWRITE)  # root bypasses


# ----------------------------------------------------------------------
# file table entries


def test_file_refcounting_releases_inode():
    node = Inode(InodeType.REG)
    node.hold()
    base_refs = node.refcount
    file = File(node, O_RDWR)
    assert node.refcount == base_refs + 1
    file.hold()
    assert not file.release()
    assert file.release()
    assert node.refcount == base_refs


def test_file_access_mode_checks():
    node = Inode(InodeType.REG)
    reader = File(node, O_RDONLY)
    writer = File(node, O_WRONLY)
    reader.require_readable()
    writer.require_writable()
    with pytest.raises(SysError):
        reader.require_writable()
    with pytest.raises(SysError):
        writer.require_readable()


# ----------------------------------------------------------------------
# fd table


def make_file():
    return File(Inode(InodeType.REG), O_RDWR)


def test_fdtable_allocates_lowest_free():
    table = FDTable(8)
    fds = [table.alloc(make_file()) for _ in range(3)]
    assert fds == [0, 1, 2]
    table.remove(1).release()
    assert table.alloc(make_file()) == 1


def test_fdtable_overflow_is_emfile():
    table = FDTable(2)
    table.alloc(make_file())
    table.alloc(make_file())
    from repro.errors import EMFILE

    with pytest.raises(SysError) as excinfo:
        table.alloc(make_file())
    assert excinfo.value.errno == EMFILE


def test_fdtable_dup_full_table_releases_held_reference():
    table = FDTable(1)
    file = make_file()
    table.alloc(file)
    base_refs = file.refcount
    with pytest.raises(SysError) as excinfo:
        table.dup(0)
    from repro.errors import EMFILE

    assert excinfo.value.errno == EMFILE
    assert file.refcount == base_refs


def test_fdtable_dup2_bad_newfd_releases_held_reference():
    table = FDTable(4)
    file = make_file()
    fd = table.alloc(file)
    base_refs = file.refcount
    for newfd in (-1, 4, 99):
        with pytest.raises(SysError) as excinfo:
            table.dup2(fd, newfd)
        from repro.errors import EBADF

        assert excinfo.value.errno == EBADF
        assert file.refcount == base_refs


def test_fdtable_dup_and_dup2_still_hold_on_success():
    table = FDTable(4)
    file = make_file()
    fd = table.alloc(file)
    base_refs = file.refcount
    newfd = table.dup(fd)
    assert table.get(newfd) is file
    assert file.refcount == base_refs + 1
    table.dup2(fd, 3)
    assert table.get(3) is file
    assert file.refcount == base_refs + 2


def test_fdtable_sync_from_counts_and_references():
    table = FDTable(8)
    shared = make_file()
    master = [None] * 8
    master[3] = shared
    changed = table.sync_from(master)
    assert changed == 1
    assert table.get(3) is shared
    assert shared.refcount == 2  # creator + this table
    # drop it from the master: table releases its reference
    changed = table.sync_from([None] * 8)
    assert changed == 1
    assert shared.refcount == 1


def test_fdtable_sync_is_idempotent():
    table = FDTable(4)
    shared = make_file()
    master = [shared, None, None, None]
    table.sync_from(master)
    assert table.sync_from(master) == 0


def _pipe_ends():
    """A fresh pipe and a file for each of its ends (no kernel)."""
    from repro.fs.pipe import Pipe
    from repro.sim.machine import Machine

    inode = Inode(InodeType.FIFO, mode=0o600)
    inode.fifo = Pipe(Machine(ncpus=1), waker=None)
    return inode.fifo, File(inode, O_RDONLY), File(inode, O_WRONLY)


def _reads_eof(pipe) -> bool:
    """Does a read of the empty pipe return EOF without sleeping?"""
    read = pipe.read(None, 16)
    try:
        next(read)
    except StopIteration as stop:
        return stop.value == b""
    read.close()
    return False


def test_dup2_over_the_last_write_end_closes_it():
    pipe, reader, writer = _pipe_ends()
    table = FDTable(4)
    table.alloc(reader)
    table.alloc(writer)
    table.dup2(0, 1)
    assert pipe.writers == 0
    assert _reads_eof(pipe)


def test_sync_from_dropping_the_last_write_end_closes_it():
    pipe, _reader, writer = _pipe_ends()
    table = FDTable(4)
    table.alloc(writer)
    table.sync_from([None] * 4)
    assert pipe.writers == 0
    assert _reads_eof(pipe)


@given(st.lists(st.sampled_from(["open", "close", "dup"]), max_size=40))
def test_fdtable_invariants_under_random_ops(ops):
    """Property: slots hold live files; alloc always picks lowest free."""
    table = FDTable(16)
    for op in ops:
        open_fds = table.open_fds()
        if op == "open":
            try:
                fd = table.alloc(make_file())
            except SysError:
                continue
            free_before = [n for n in range(16) if n not in open_fds]
            assert fd == free_before[0]
        elif op == "close" and open_fds:
            table.remove(open_fds[0]).release()
        elif op == "dup" and open_fds:
            source = table.get(open_fds[-1])
            before = source.refcount
            try:
                table.dup(open_fds[-1])
            except SysError:
                continue
            assert source.refcount == before + 1
    for fd in table.open_fds():
        assert table.get(fd).refcount >= 1
