"""Local sockets: connect/accept, data transfer, descriptor passing."""

import pytest

from repro import O_CREAT, O_RDWR, SEEK_SET, SIGUSR1, System
from repro.check.invariants import audit_leaks
from repro.errors import ECONNREFUSED, EINTR, EINVAL, EMFILE, ENOTCONN, ENOTSOCK, EPIPE
from tests.conftest import run_program


def test_socketpair_bidirectional():
    def main(api, out):
        a, b = yield from api.socketpair()
        yield from api.send(a, b"ping")
        out["b_got"] = yield from api.recv(b, 16)
        yield from api.send(b, b"pong")
        out["a_got"] = yield from api.recv(a, 16)
        return 0

    out, _ = run_program(main)
    assert out["b_got"] == b"ping"
    assert out["a_got"] == b"pong"


def test_read_and_write_on_a_socket_run_recv_and_send():
    """``read``/``write`` on a socket take the ``recv``/``send`` kernel
    path: the same data moves for the same cycles."""

    def program(file_calls):
        def main(api, out):
            put = api.write if file_calls else api.send
            get = api.read if file_calls else api.recv
            a, b = yield from api.socketpair()
            out["a sent"] = yield from put(a, b"ping")
            out["b got"] = yield from get(b, 16)
            out["b sent"] = yield from put(b, b"pong!")
            out["a got"] = yield from get(a, 16)
            return 0

        return main

    via_files, files_sim = run_program(program(True))
    via_sockets, sockets_sim = run_program(program(False))
    assert via_files == {
        "a sent": 4, "b got": b"ping", "b sent": 5, "a got": b"pong!",
    }
    assert via_files == via_sockets
    assert files_sim.now == sockets_sim.now


def test_connect_accept_flow():
    def server(api, out):
        s = yield from api.socket()
        yield from api.bind(s, "srv")
        yield from api.listen(s, 4)
        conn = yield from api.accept(s)
        data = yield from api.recv(conn, 64)
        yield from api.send(conn, b"ACK:" + data)
        return 0

    def client(api, out):
        yield from api.compute(30_000)
        s = yield from api.socket()
        yield from api.connect(s, "srv")
        yield from api.send(s, b"req")
        out["reply"] = yield from api.recv(s, 64)
        return 0

    def main(api, out):
        yield from api.fork(server, out)
        yield from api.fork(client, out)
        yield from api.wait()
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["reply"] == b"ACK:req"


def test_connect_to_unbound_name_refused():
    def main(api, out):
        s = yield from api.socket()
        rc = yield from api.connect(s, "nobody")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ECONNREFUSED


def test_connect_without_listen_refused():
    def main(api, out):
        s = yield from api.socket()
        yield from api.bind(s, "bound-not-listening")
        c = yield from api.socket()
        rc = yield from api.connect(c, "bound-not-listening")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ECONNREFUSED


@pytest.mark.parametrize("call", ["send", "sendfd"])
def test_send_on_unconnected_is_enotconn(call):
    def main(api, out):
        s = yield from api.socket()
        if call == "send":
            rc = yield from api.send(s, b"x")
        else:
            fd = yield from api.open("/f", O_RDWR | O_CREAT)
            rc = yield from api.sendfd(s, fd)
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ENOTCONN


def test_socket_ops_on_regular_fd_are_enotsock():
    def main(api, out):
        fd = yield from api.open("/f", O_RDWR | O_CREAT)
        rc = yield from api.send(fd, b"x")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == ENOTSOCK


def test_recv_eof_after_peer_close():
    def main(api, out):
        a, b = yield from api.socketpair()
        yield from api.send(a, b"tail")
        yield from api.close(a)
        out["data"] = yield from api.recv(b, 16)
        out["eof"] = yield from api.recv(b, 16)
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"tail"
    assert out["eof"] == b""


def test_send_after_peer_close_is_epipe():
    from repro import SIG_IGN, SIGPIPE

    def main(api, out):
        a, b = yield from api.socketpair()
        yield from api.close(b)
        yield from api.signal(SIGPIPE, SIG_IGN)
        rc = yield from api.send(a, b"x")
        out["errno"] = yield from api.errno()
        return 0

    out, _ = run_program(main)
    assert out["errno"] == EPIPE


def test_recv_with_a_negative_count_is_einval():
    """``recv`` rejects a negative count before it takes any data, as
    ``read`` does; the bytes stay queued for the next call."""

    def main(api, out):
        a, b = yield from api.socketpair()
        yield from api.send(a, b"abcd")
        out["bad"] = yield from api.recv(b, -1)
        out["errno"] = yield from api.errno()
        out["good"] = yield from api.recv(b, 4)
        return 0

    out, _ = run_program(main)
    assert (out["bad"], out["errno"]) == (-1, EINVAL)
    assert out["good"] == b"abcd"


@pytest.mark.parametrize("disposition", ["ignored", "handled"])
def test_sendfd_to_a_closed_peer_is_epipe_and_holds_nothing(disposition):
    """``sendfd`` to a peer that has closed fails like ``send`` does,
    SIGPIPE included, and takes no reference on the passed file."""
    from repro import SIG_IGN, SIGPIPE

    def main(api, out):
        out["signals"] = []

        def handler(api, sig):
            out["signals"].append(sig)
            yield from api.compute(10)

        yield from api.signal(
            SIGPIPE, SIG_IGN if disposition == "ignored" else handler
        )
        a, b = yield from api.socketpair()
        fd = yield from api.open("/passed", O_RDWR | O_CREAT)
        file = api.proc.uarea.fdtable.get(fd)
        before = file.refcount
        yield from api.close(b)
        out["rc"] = yield from api.sendfd(a, fd)
        out["errno"] = yield from api.errno()
        out["refs"] = (before, file.refcount)
        yield from api.close(a)
        yield from api.close(fd)
        return 0

    out, sim = run_program(main)
    assert (out["rc"], out["errno"]) == (-1, EPIPE)
    assert out["refs"] == (1, 1)
    assert out["signals"] == ([] if disposition == "ignored" else [SIGPIPE])
    assert audit_leaks(sim) == []


def test_large_transfer_blocks_and_completes():
    from repro.ipc.socket import SOCK_BUF

    def sender(api, fd):
        yield from api.send(fd, b"z" * (SOCK_BUF * 3))
        yield from api.close(fd)
        return 0

    def main(api, out):
        a, b = yield from api.socketpair()
        yield from api.fork(sender, a)
        yield from api.close(a)
        total = 0
        while True:
            chunk = yield from api.recv(b, 4096)
            if not chunk:
                break
            total += len(chunk)
        out["total"] = total
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    from repro.ipc.socket import SOCK_BUF

    assert out["total"] == SOCK_BUF * 3


def test_descriptor_passing_transfers_open_file():
    """The paper's introduction example: a server opens a descriptor and
    hands it to a waiting child over a queue."""

    def server(api, out):
        s = yield from api.socket()
        yield from api.bind(s, "passer")
        yield from api.listen(s)
        conn = yield from api.accept(s)
        fd = yield from api.open("/payload", O_RDWR | O_CREAT)
        yield from api.write(fd, b"delivered")
        yield from api.sendfd(conn, fd)
        yield from api.close(fd)  # server's copy can go; the file lives on
        return 0

    def worker(api, out):
        yield from api.compute(30_000)
        s = yield from api.socket()
        yield from api.connect(s, "passer")
        fd = yield from api.recvfd(s)
        yield from api.lseek(fd, 0, SEEK_SET)
        out["data"] = yield from api.read(fd, 64)
        return 0

    def main(api, out):
        yield from api.fork(server, out)
        yield from api.fork(worker, out)
        yield from api.wait()
        yield from api.wait()
        return 0

    out, _ = run_program(main)
    assert out["data"] == b"delivered"


def test_descriptor_queued_at_last_close_is_disposed():
    """A passed pipe write end nobody received closes with the socket,
    so the pipe's reader sees EOF instead of sleeping forever."""

    def main(api, out):
        a, b = yield from api.socketpair()
        rfd, wfd = yield from api.pipe()
        yield from api.sendfd(a, wfd)
        yield from api.close(wfd)  # b's queue now holds the only copy
        yield from api.close(b)
        out["read"] = yield from api.read(rfd, 8)
        return 0

    out, sim = run_program(main, ncpus=1)
    assert out["read"] == b""
    assert audit_leaks(sim) == []


def test_accept_whose_descriptor_allocation_fails_closes_the_connection():
    def client(api, out):
        yield from api.compute(20_000)
        s = yield from api.socket()  # fd.alloc hit 2
        yield from api.connect(s, "srv")
        out["recv"] = yield from api.recv(s, 8)
        return 0

    def main(api, out):
        s = yield from api.socket()  # fd.alloc hit 1
        yield from api.bind(s, "srv")
        yield from api.listen(s)
        yield from api.fork(client, out)
        out["accept"] = yield from api.accept(s)  # hit 3 fails
        out["errno"] = yield from api.errno()
        yield from api.close(s)
        yield from api.wait()
        return 0

    out, sim = run_program(main, inject={"fd.alloc": "nth:3"})
    assert (out["accept"], out["errno"]) == (-1, EMFILE)
    assert out["recv"] == b"", "the client sees the dropped connection close"
    assert audit_leaks(sim) == []


def test_backlog_limit_refuses_excess_connections():
    def main(api, out):
        s = yield from api.socket()
        yield from api.bind(s, "tiny")
        yield from api.listen(s, 1)
        c1 = yield from api.socket()
        yield from api.connect(c1, "tiny")  # fills the backlog
        c2 = yield from api.socket()
        rc = yield from api.connect(c2, "tiny")
        out["errno"] = yield from api.errno()
        out["rc"] = rc
        return 0

    out, _ = run_program(main)
    assert out["rc"] == -1
    assert out["errno"] == ECONNREFUSED


def test_accept_blocks_until_connection():
    def late_client(api, arg):
        yield from api.compute(50_000)
        s = yield from api.socket()
        yield from api.connect(s, "patient")
        yield from api.send(s, b"hi")
        return 0

    def main(api, out):
        s = yield from api.socket()
        yield from api.bind(s, "patient")
        yield from api.listen(s)
        yield from api.fork(late_client)
        start = api.now
        conn = yield from api.accept(s)
        out["waited"] = api.now - start
        out["data"] = yield from api.recv(conn, 16)
        yield from api.wait()
        return 0

    out, _ = run_program(main, ncpus=2)
    assert out["waited"] >= 40_000
    assert out["data"] == b"hi"


# ----------------------------------------------------------------------
# a sleep that a signal interrupts takes its banked wakeup claim back


def _noop_handler(api, sig):
    return
    yield  # pragma: no cover - marks this as a generator


def _socket_of(sim, pid, fd):
    return sim.proc(pid).uarea.fdtable.slots[fd].socket


def test_recv_interrupted_by_signal_unbanks_its_waiter():
    holder = {}

    def reader(api, arg):
        out, fd = arg
        yield from api.signal(SIGUSR1, _noop_handler)
        rc = yield from api.recv(fd, 8)
        out["err"] = (yield from api.errno()) if rc == -1 else None
        out["waiters_after_eintr"] = out["sock"].rx.readable.waiters
        out["data"] = yield from api.recv(fd, 8)
        out["value_after_transfer"] = out["sock"].rx.readable.sema.value
        return 0

    def main(api, out):
        a, b = yield from api.socketpair()
        out["sock"] = _socket_of(holder["sim"], (yield from api.getpid()), b)
        pid = yield from api.fork(reader, (out, b))
        yield from api.compute(30_000)
        yield from api.kill(pid, SIGUSR1)
        yield from api.compute(30_000)
        yield from api.send(a, b"payload!")
        yield from api.wait()
        return 0

    holder["sim"] = sim = System(ncpus=2)
    out, _ = run_program(main, sim=sim)
    assert out["err"] == EINTR
    assert out["waiters_after_eintr"] == 0
    assert out["data"] == b"payload!"
    assert out["value_after_transfer"] == 0


def test_send_interrupted_by_signal_unbanks_its_waiter():
    from repro.ipc.socket import SOCK_BUF

    holder = {}

    def writer(api, arg):
        out, fd = arg
        yield from api.signal(SIGUSR1, _noop_handler)
        # blocks once full; the signal then ends it with the partial count
        out["rc"] = yield from api.send(fd, b"w" * (SOCK_BUF + 808))
        out["waiters_after_signal"] = out["sock"].tx.writable.waiters
        return 0

    def main(api, out):
        a, b = yield from api.socketpair()
        out["sock"] = _socket_of(holder["sim"], (yield from api.getpid()), a)
        pid = yield from api.fork(writer, (out, a))
        yield from api.compute(30_000)
        yield from api.kill(pid, SIGUSR1)
        yield from api.wait()
        out["got"] = len((yield from api.recv(b, SOCK_BUF)))
        out["value_after_transfer"] = out["sock"].tx.writable.sema.value
        return 0

    holder["sim"] = sim = System(ncpus=2)
    out, _ = run_program(main, sim=sim)
    assert out["rc"] == SOCK_BUF
    assert out["waiters_after_signal"] == 0
    assert out["got"] == SOCK_BUF
    assert out["value_after_transfer"] == 0
