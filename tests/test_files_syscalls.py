"""File system calls: open/read/write/seek/dup/pipe and friends."""


from repro import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    )
from repro.errors import (
    EACCES,
    EBADF,
    EEXIST,
    EFBIG,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOTDIR,
    EPERM,
    ESPIPE,
)
from tests.conftest import run_program


def test_open_missing_file_is_enoent():
    def main(api, out):
        rc = yield from api.open("/missing")
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == ENOENT


def test_create_write_read_roundtrip():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        n = yield from api.write(fd, b"some bytes here")
        yield from api.lseek(fd, 0, SEEK_SET)
        data = yield from api.read(fd, 64)
        out["n"] = n
        out["data"] = data
        return 0

    out, _ = run_program(main)
    assert out["n"] == 15
    assert out["data"] == b"some bytes here"


def test_o_excl_on_existing_file():
    def main(api, out):
        fd = yield from api.creat("/f")
        yield from api.close(fd)
        rc = yield from api.open("/f", O_RDWR | O_CREAT | O_EXCL)
        out["errno"] = yield from api.errno()
        out["rc"] = rc
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == EEXIST


def test_o_trunc_clears_contents():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"old contents")
        yield from api.close(fd)
        fd = yield from api.open("/f", O_RDWR | O_TRUNC)
        st = yield from api.fstat(fd)
        out["size"] = st["size"]
        return 0

    out, _ = run_program(main)
    assert out["size"] == 0


def test_o_append_always_writes_at_end():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"12345")
        fd2 = yield from api.open("/f", O_WRONLY | O_APPEND)
        yield from api.write(fd2, b"END")
        yield from api.lseek(fd, 0, SEEK_SET)
        out["data"] = yield from api.read(fd, 64)
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"12345END"


def test_lseek_whences_and_espipe():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"0123456789")
        out["cur"] = yield from api.lseek(fd, -3, SEEK_CUR)
        out["end"] = yield from api.lseek(fd, -2, SEEK_END)
        out["set"] = yield from api.lseek(fd, 4, SEEK_SET)
        rfd, wfd = yield from api.pipe()
        rc = yield from api.lseek(rfd, 0, SEEK_SET)
        out["pipe_rc"] = rc
        out["pipe_errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["cur"] == 7
    assert out["end"] == 8
    assert out["set"] == 4
    assert out["pipe_rc"] == -1
    assert out["pipe_errno"] == ESPIPE


def test_read_from_writeonly_fd_is_ebadf():
    def main(api, out):
        fd = yield from api.open("/f", O_WRONLY | O_CREAT)
        rc = yield from api.read(fd, 4)
        out["errno"] = yield from api.errno()
        out["rc"] = rc
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == EBADF


def test_dup_shares_offset_dup2_replaces():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"abcdef")
        fd2 = yield from api.dup(fd)
        yield from api.lseek(fd, 1, SEEK_SET)
        out["via_dup"] = yield from api.read(fd2, 2)  # shared offset
        fd3 = yield from api.open("/f")
        yield from api.dup2(fd, fd3)
        out["after_dup2"] = yield from api.read(fd3, 2)
        return 0

    out, _ = run_program(main)
    assert out["via_dup"] == b"bc"
    assert out["after_dup2"] == b"de"


def test_guest_buffer_read_write_v():
    def main(api, out):
        buf = yield from api.mmap(4096)
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.store(buf, b"guest!")
        n = yield from api.write_v(fd, buf, 6)
        yield from api.lseek(fd, 0, SEEK_SET)
        n2 = yield from api.read_v(fd, buf + 100, 6)
        out["n"] = (n, n2)
        out["copy"] = yield from api.load(buf + 100, 6)
        return 0

    out, _ = run_program(main)
    assert out["n"] == (6, 6)
    assert out["copy"] == b"guest!"


def test_write_v_with_a_negative_count_is_einval():
    """``write_v`` rejects a negative count as ``read_v`` does, and
    writes nothing."""

    def main(api, out):
        buf = yield from api.mmap(4096)
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        for name, call in (("write_v", api.write_v), ("read_v", api.read_v)):
            rc = yield from call(fd, buf, -1)
            out[name] = (rc, (yield from api.errno()))
        out["size"] = yield from api.lseek(fd, 0, SEEK_END)
        return 0

    out, _ = run_program(main)
    assert out["write_v"] == (-1, EINVAL)
    assert out["read_v"] == (-1, EINVAL)
    assert out["size"] == 0


def test_mkdir_chdir_relative_paths():
    def main(api, out):
        yield from api.mkdir("/a")
        yield from api.mkdir("/a/b")
        yield from api.chdir("/a/b")
        fd = yield from api.creat("deep")
        yield from api.close(fd)
        st = yield from api.stat("/a/b/deep")
        out["ok"] = st != -1
        st2 = yield from api.stat("../b/deep")
        out["dotdot"] = st2 != -1
        return 0

    out, _ = run_program(main)
    assert out["ok"] and out["dotdot"]


def test_chdir_to_file_is_enotdir():
    def main(api, out):
        fd = yield from api.creat("/plain")
        yield from api.close(fd)
        rc = yield from api.chdir("/plain")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ENOTDIR


def test_chroot_confines_lookups():
    def main(api, out):
        yield from api.mkdir("/jail")
        fd = yield from api.creat("/jail/inside")
        yield from api.close(fd)
        fd = yield from api.creat("/outside")
        yield from api.close(fd)
        yield from api.chroot("/jail")
        yield from api.chdir("/")
        out["inside"] = (yield from api.stat("/inside")) != -1
        out["outside_rc"] = yield from api.stat("/outside")
        out["escape_rc"] = yield from api.stat("../../outside")
        return 0

    out, _ = run_program(main)
    assert out["inside"]
    assert out["outside_rc"] == -1
    assert out["escape_rc"] == -1, "dot-dot must not escape the chroot"


def test_chroot_requires_root():
    def main(api, out):
        yield from api.mkdir("/jail")
        yield from api.setuid(10)
        rc = yield from api.chroot("/jail")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EPERM


def test_umask_masks_creation_mode():
    def main(api, out):
        yield from api.umask(0o027)
        fd = yield from api.open("/f", O_RDWR | O_CREAT, 0o777)
        st = yield from api.fstat(fd)
        out["mode"] = st["mode"]
        return 0

    out, _ = run_program(main)
    assert out["mode"] == 0o750


def test_permission_checks_respect_uid():
    def main(api, out):
        fd = yield from api.open("/secret", O_RDWR | O_CREAT, 0o600)
        yield from api.close(fd)
        yield from api.setuid(42)
        rc = yield from api.open("/secret", O_RDONLY)
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EACCES


def test_ulimit_blocks_big_writes():
    def main(api, out):
        yield from api.ulimit(2, 10)
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        ok = yield from api.write(fd, b"123456789")
        rc = yield from api.write(fd, b"XY")  # would pass offset 10
        out["ok"] = ok
        out["rc"] = rc
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["ok"] == 9
    assert out["rc"] == -1
    assert out["errno"] == EFBIG


def test_unlink_removes_name_but_open_fd_survives():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        yield from api.write(fd, b"still here")
        yield from api.unlink("/f")
        out["stat_rc"] = yield from api.stat("/f")
        yield from api.lseek(fd, 0, SEEK_SET)
        out["data"] = yield from api.read(fd, 64)
        return 0

    out, _ = run_program(main)
    assert out["stat_rc"] == -1
    assert out["data"] == b"still here"


def test_write_to_directory_fd_is_eisdir():
    def main(api, out):
        yield from api.mkdir("/d")
        rc = yield from api.open("/d", O_WRONLY)
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EISDIR


# ----------------------------------------------------------------------
# pipes


def test_pipe_roundtrip_and_eof():
    def writer(api, wfd):
        yield from api.write(wfd, b"through the pipe")
        yield from api.close(wfd)
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        yield from api.fork(writer, wfd)
        yield from api.close(wfd)
        chunks = []
        while True:
            chunk = yield from api.read(rfd, 7)
            if not chunk:
                break
            chunks.append(chunk)
        out["data"] = b"".join(chunks)
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"through the pipe"


def test_pipe_blocks_writer_when_full():
    from repro.fs.pipe import PIPE_BUF

    def writer(api, wfd):
        # two full buffers: must block until the reader drains
        yield from api.write(wfd, b"x" * (PIPE_BUF * 2))
        yield from api.close(wfd)
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        yield from api.fork(writer, wfd)
        yield from api.close(wfd)
        total = 0
        while True:
            chunk = yield from api.read(rfd, 1024)
            if not chunk:
                break
            total += len(chunk)
        out["total"] = total
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    from repro.fs.pipe import PIPE_BUF

    assert out["total"] == PIPE_BUF * 2


def test_pipe_reader_blocks_until_data():
    def writer(api, wfd):
        yield from api.compute(40_000)
        yield from api.write(wfd, b"late")
        yield from api.close(wfd)
        return 0

    def main(api, out):
        rfd, wfd = yield from api.pipe()
        yield from api.fork(writer, wfd)
        yield from api.close(wfd)
        start = api.now
        data = yield from api.read(rfd, 4)
        out["waited"] = api.now - start
        out["data"] = data
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["data"] == b"late"
    assert out["waited"] >= 30_000
