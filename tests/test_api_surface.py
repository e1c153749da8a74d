"""The public API surface: docs/API.md must not drift from the code."""

import inspect
import re
from pathlib import Path

import repro
import repro.runtime
from repro.kernel.syscalls import UserAPI

API_MD = Path(__file__).resolve().parents[1] / "docs" / "API.md"


PAPER_CALLS = {"sproc", "prctl"}
PROCESS_CALLS = {
    "fork", "exec", "exit", "wait", "getpid", "getppid", "nice",
    "kill", "signal", "pause", "alarm", "blockproc", "unblockproc",
}
VM_CALLS = {
    "sbrk", "mmap", "munmap", "load", "store", "load_word", "store_word",
    "cas", "fetch_add", "compute", "yield_cpu", "uwait", "uwake",
}
FILE_CALLS = {
    "open", "creat", "close", "read", "write", "read_v", "write_v",
    "pread_v", "pwrite_v",
    "lseek", "dup", "dup2", "pipe", "mkdir", "unlink", "link",
    "ftruncate", "readdir", "stat", "fstat", "chdir", "chroot",
    "umask", "ulimit", "errno",
}
ID_CALLS = {"getuid", "setuid", "getgid", "setgid"}
IPC_CALLS = {
    "shmget", "shmat", "shmdt", "shm_rmid", "semget", "semop",
    "socket", "socketpair", "bind", "listen", "connect", "accept",
    "send", "recv", "sendfd", "recvfd", "thread_create", "thread_join",
}

ALL_CALLS = PAPER_CALLS | PROCESS_CALLS | VM_CALLS | FILE_CALLS | ID_CALLS | IPC_CALLS

#: public ``UserAPI`` attributes that are host-side instrumentation, not calls
HOST_SIDE = {"now", "pid"}

#: The calls that are generator functions of their own.  Every other
#: call (each syscall stub and each memory instruction) returns the
#: kernel's generator directly instead of wrapping it in a generator
#: frame — ``yield from`` delegation and the returned value are
#: identical, one host frame cheaper per effect.  The contract callers
#: rely on (``yield from api.X(...)``) holds for both shapes.
GENERATOR_CALLS = {"compute", "yield_cpu", "errno"}
DELEGATING_CALLS = ALL_CALLS - GENERATOR_CALLS


def test_every_documented_call_exists_and_is_yield_from_able():
    for name in sorted(ALL_CALLS):
        method = getattr(UserAPI, name, None)
        assert method is not None, "missing api.%s" % name
        if name in DELEGATING_CALLS:
            assert inspect.isfunction(method) and not inspect.isgeneratorfunction(
                method
            ), "api.%s should delegate (plain function returning a generator)" % name
        else:
            assert inspect.isgeneratorfunction(method), (
                "api.%s must be a generator function" % name
            )


def test_delegating_calls_return_generators():
    """The delegating stubs must hand back a real generator object."""
    import repro

    sim = repro.System(ncpus=1)
    proc = sim.kernel.procs[0] if getattr(sim.kernel, "procs", None) else None
    api = UserAPI(sim.kernel, proc)
    gen = api.load_word(0)
    assert inspect.isgenerator(gen)
    gen.close()
    gen = api.store(0, b"xy")
    assert inspect.isgenerator(gen)
    gen.close()


def test_a_syscall_stub_enters_the_kernel_only_when_iterated():
    """Calling a stub builds the trampoline generator and nothing else."""
    import repro

    def main(api, arg):
        yield from api.getuid()
        yield from api.compute(100_000)

    sim = repro.System(ncpus=1)
    proc = sim.spawn(main)
    sim.run(until=50_000)
    assert proc.alive() and sim.stats["syscalls"] == 1
    before = (sim.stats["syscalls"], dict(proc.ks))
    gen = proc.api.getpid()
    assert inspect.isgenerator(gen)
    gen.close()
    assert (sim.stats["syscalls"], dict(proc.ks)) == before


def test_every_public_method_is_documented_here():
    """New API methods must be added to docs/API.md (and this list)."""
    public = {name for name in vars(UserAPI) if not name.startswith("_")}
    calls = public - HOST_SIDE
    assert calls == ALL_CALLS, "document in docs/API.md: %s; gone: %s" % (
        sorted(calls - ALL_CALLS), sorted(ALL_CALLS - calls)
    )


def _code_spans(text):
    return re.findall(r"`([^`]+)`", text)


def test_every_call_appears_in_a_code_span_of_api_md():
    documented = set()
    for span in _code_spans(API_MD.read_text()):
        documented.update(re.findall(r"[A-Za-z_]\w*", span))
    missing = ALL_CALLS - documented
    assert not missing, "docs/API.md does not mention: %s" % sorted(missing)


def test_runtime_library_paragraph_names_resolve():
    """Each name docs/API.md lists for ``repro.runtime`` exists there."""
    text = API_MD.read_text()
    heading = re.search(r"^## Runtime library.*$", text, re.M)
    assert heading is not None
    paragraph = text[heading.end():].strip().split("\n\n")[0]
    spans = _code_spans(paragraph)
    assert spans
    unresolved = []
    for span in spans:
        obj = repro.runtime
        for part in span.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(span)
    assert not unresolved, "not in repro.runtime: %s" % unresolved


def test_package_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_share_mask_bits_are_distinct_and_within_sall():
    from repro import (
        PR_SADDR, PR_SALL, PR_SDIR, PR_SFDS, PR_SID, PR_SULIMIT, PR_SUMASK,
    )

    bits = [PR_SADDR, PR_SULIMIT, PR_SUMASK, PR_SDIR, PR_SFDS, PR_SID]
    assert len({bit for bit in bits}) == len(bits)
    combined = 0
    for bit in bits:
        assert bit & combined == 0, "share mask bits overlap"
        combined |= bit
        assert bit & PR_SALL == bit, "every resource bit is inside PR_SALL"


def test_prctl_option_codes_are_distinct():
    from repro.share import prctl as prctl_mod

    codes = [
        value
        for name, value in vars(prctl_mod).items()
        if name.startswith("PR_") and isinstance(value, int)
        and name != "PR_SADDR"  # a share-mask bit imported for a check
    ]
    assert len(set(codes)) == len(codes)


def test_paper_spelling_alias():
    from repro import PR_FDS, PR_SFDS

    assert PR_FDS == PR_SFDS


def test_every_public_module_has_a_docstring():
    import importlib
    import pkgutil

    missing = []
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, "modules without docstrings: %s" % missing
