"""Program images, registration, and image-shaped address spaces."""

import pytest

from repro import System
from repro.kernel.kernel import DEFAULT_DATA, DEFAULT_TEXT, ProgramImage
from repro.mem import layout
from repro.mem.region import RegionType
from tests.conftest import run_program


def test_register_program_binds_path_and_registry():
    def image(api, arg):
        return 0
        yield

    sim = System(ncpus=1)
    sim.register_program("/usr/bin/tool", image)
    assert "tool" in sim.kernel.programs
    node = sim.kernel.fs.namei("/usr/bin/tool", sim.kernel.fs.root)
    assert node.program == "tool"


def test_exec_uses_registered_segment_sizes():
    probe = {}

    def image(api, arg):
        from repro.mem.region import RegionType

        yield from api.getpid()
        pregions = {
            pregion.rtype: pregion.region.nbytes
            for pregion, _ in api.proc.vm.iter_pregions()
        }
        probe["text"] = pregions[RegionType.TEXT]
        probe["data"] = pregions[RegionType.DATA]
        return 0

    def main(api, out):
        yield from api.exec("/bin/big")
        return 9

    sim = System(ncpus=1)
    sim.register_program(
        "/bin/big", image, text_bytes=256 * 1024, data_bytes=512 * 1024
    )
    sim.spawn(main)
    sim.run()
    assert probe["text"] == 256 * 1024
    assert probe["data"] == 512 * 1024


def test_default_image_layout():
    def main(api, out):
        found = {}
        for pregion, shared in api.proc.vm.iter_pregions():
            found[pregion.rtype] = pregion
        out["prda_at"] = found[RegionType.PRDA].vbase
        out["text_at"] = found[RegionType.TEXT].vbase
        out["data_at"] = found[RegionType.DATA].vbase
        out["text_size"] = found[RegionType.TEXT].region.nbytes
        out["data_size"] = found[RegionType.DATA].region.nbytes
        out["stack_high"] = found[RegionType.STACK].vhigh
        return 0
        yield

    out, _ = run_program(main)
    assert out["prda_at"] == layout.PRDA_BASE
    assert out["text_at"] == layout.TEXT_BASE
    assert out["data_at"] == layout.DATA_BASE
    assert out["text_size"] == DEFAULT_TEXT
    assert out["data_size"] == DEFAULT_DATA
    assert out["stack_high"] == layout.STACK_TOP


def test_text_segment_is_not_writable():
    from repro import SIGSEGV, status_signal

    def scribbler(api, arg):
        yield from api.store_word(layout.TEXT_BASE, 0xBAD)
        return 0

    def main(api, out):
        yield from api.fork(scribbler)
        _, status = yield from api.wait()
        out["sig"] = status_signal(status)
        return 0

    out, _ = run_program(main)
    from repro import SIGSEGV

    assert out["sig"] == SIGSEGV


def test_spawn_uid_flows_into_credentials():
    def main(api, out):
        out["uid"] = yield from api.getuid()
        return 0

    out = {}
    sim = System(ncpus=1)
    sim.spawn(main, out, uid=42)
    sim.run()
    assert out["uid"] == 42


def test_program_image_repr_and_defaults():
    image = ProgramImage("demo", lambda api, arg: iter(()))
    assert image.text_bytes == DEFAULT_TEXT
    assert image.data_bytes == DEFAULT_DATA
    assert "demo" in repr(image)


def test_non_generator_program_gets_clear_diagnostic():
    from repro.errors import SimulationError

    def oops(api, arg):
        return 0  # no yield anywhere: not a generator function

    sim = System(ncpus=1)
    sim.spawn(oops)
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    assert "not a generator function" in str(excinfo.value)
