"""The benchmark harness itself: tables, claims, persistence."""

import gc
import os
import re

import pytest

from repro.bench.harness import ExperimentResult, mean, ratio


def make_result():
    result = ExperimentResult("EX", "a test experiment", ["name", "value"])
    result.add_row(name="alpha", value=10)
    result.add_row(name="beta", value=2_000_000)
    return result


def test_render_contains_rows_and_title():
    text = make_result().render()
    assert "EX — a test experiment" in text
    assert "alpha" in text
    assert "2,000,000" in text


def test_check_passes_when_all_claims_hold():
    result = make_result()
    result.claim("water is wet", True)
    assert result.check() is result


def test_check_raises_listing_failed_claims():
    result = make_result()
    result.claim("good", True)
    result.claim("bad one", False, "details here")
    with pytest.raises(AssertionError) as excinfo:
        result.check()
    message = str(excinfo.value)
    assert "bad one" in message
    assert "details here" in message
    assert "good" not in message.split("FAILED")[0]


def test_render_marks_claim_status():
    result = make_result()
    result.claim("holds", True)
    result.claim("fails", False)
    text = result.render()
    assert "[ok  ] holds" in text
    assert "[FAIL] fails" in text


def test_notes_rendered():
    result = make_result()
    result.note("this caveat matters")
    assert "note: this caveat matters" in result.render()


def test_save_writes_file(tmp_path):
    result = make_result()
    path = result.save(directory=str(tmp_path))
    assert os.path.exists(path)
    with open(path) as handle:
        assert "a test experiment" in handle.read()


def test_float_formatting():
    result = ExperimentResult("EF", "floats", ["x"])
    result.add_row(x=3.14159)
    assert "3.14" in result.render()


def test_mean_and_ratio_helpers():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0
    assert ratio(10, 4) == 2.5
    assert ratio(1, 0) == float("inf")


def test_all_experiments_registered():
    from repro.bench import ALL_EXPERIMENTS

    assert set(ALL_EXPERIMENTS) == {
        "E1", "E2", "E3", "E4", "E5", "E6", "E7",
        "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16",
        "E17",
    }
    for func in ALL_EXPERIMENTS.values():
        assert callable(func)


def test_cli_list(capsys):
    from repro.bench.__main__ import main

    assert main(["prog", "--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E13" in out


def test_cli_has_exactly_four_options(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["prog", "--help"])
    assert excinfo.value.code == 0
    options = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert options == {"--help", "--list", "--seeds", "--jobs", "--scale"}


def test_cli_rejects_unknown(capsys):
    from repro.bench.__main__ import main

    assert main(["prog", "E99"]) == 2


def test_cli_runs_one_experiment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    from repro.bench.__main__ import main

    assert main(["prog", "E2"]) == 0
    assert (tmp_path / "e2.txt").exists()


def test_bench_leaves_the_callers_gc_enabled(tmp_path, monkeypatch):
    """Only processes the bench owns turn the host collector off."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    from repro.bench.__main__ import main
    from repro.bench.stats import run_sweep

    gc.enable()
    try:
        assert main(["prog", "E2"]) == 0
        assert gc.isenabled()
        run_sweep("e15", nseeds=1, jobs=1, rounds=4)
        assert gc.isenabled()
    finally:
        gc.enable()
