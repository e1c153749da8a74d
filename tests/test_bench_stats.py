"""The seed sweep: per-seed metrics, the eNN.seeds.txt table, the host gate."""

import importlib.util
import json
import os

from repro.bench.__main__ import main as bench_main
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import ExperimentResult
from repro.bench.stats import extract_metrics, run_sweep, summarize


def test_summarize_shape():
    stat = summarize([1.0, 2.0, 3.0])
    assert stat["n"] == 3
    assert stat["mean"] == 2.0
    assert stat["min"] == 1.0 and stat["max"] == 3.0
    assert stat["values"] == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# metric extraction


def test_extract_metrics_takes_numeric_columns_keyed_by_first():
    result = ExperimentResult("EX", "t", ["mode", "cycles", "label", "ratio"])
    result.add_row(mode="fast", cycles=100, label="x", ratio=1.5)
    result.add_row(mode="slow", cycles=300, label="y", ratio=4.5)
    metrics = extract_metrics(result)
    assert metrics == {
        "fast": {"cycles": 100.0, "ratio": 1.5},
        "slow": {"cycles": 300.0, "ratio": 4.5},
    }


def test_extract_metrics_keeps_rows_that_share_a_first_column():
    """E1's shape: each mechanism at several image sizes."""
    result = ExperimentResult("EX", "t", ["mechanism", "pages", "cycles"])
    result.add_row(mechanism="fork", pages=4, cycles=100)
    result.add_row(mechanism="fork", pages=64, cycles=300)
    result.add_row(mechanism="thread", pages=4, cycles=50)
    assert extract_metrics(result) == {
        "fork#0": {"pages": 4, "cycles": 100},
        "fork#1": {"pages": 64, "cycles": 300},
        "thread": {"pages": 4, "cycles": 50},
    }


# ----------------------------------------------------------------------
# the sweep (serial path; the Pool path differs only in transport)


def test_sweep_serial_collects_per_seed_samples_and_cis():
    sweep = run_sweep("e15", nseeds=2, jobs=1, rounds=4)
    assert sweep.failed_claims == []
    samples = sweep.samples()
    assert set(samples) == {"global", "percpu"}
    values = samples["percpu"]["makespan_cycles"]
    assert len(values) == 2
    text = sweep.render()
    assert text.startswith("E15 — ")
    assert "seeds 0..1:" in text
    line = next(line for line in text.splitlines()
                if line.startswith("percpu") and "makespan_cycles" in line)
    # the per-seed values close the line, exactly as the rows hold them
    assert line.endswith("%d %d" % tuple(values))


def test_sweep_same_seed_reproduces_identical_metrics():
    one = run_sweep("e15", nseeds=1, jobs=1, rounds=4)
    two = run_sweep("e15", nseeds=1, jobs=1, rounds=4)
    assert one.runs[0]["metrics"] == two.runs[0]["metrics"]


# ----------------------------------------------------------------------
# the host-speed gate in benchmarks/compare_bench.py


def _load_compare_bench():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "compare_bench.py")
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_bench_host_mode_gates_on_rate(tmp_path, capsys):
    compare_bench = _load_compare_bench()

    def host_json(name, rate):
        # the summary line perfbench/run.py --trace 0 prints last
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            json.dump({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {
                           "sim_cycles_per_host_sec": {
                               "value": rate, "unit": "cycles/s"},
                           "host_s": {"value": 1.0, "unit": "s"},
                       }}, handle)
        return path

    ok = compare_bench.main([
        "--previous", host_json("p.json", 1_000_000.0),
        "--current", host_json("c.json", 900_000.0),
    ])
    assert ok == 0  # within the generous runner-noise threshold
    bad = compare_bench.main([
        "--previous", host_json("p2.json", 1_000_000.0),
        "--current", host_json("c2.json", 400_000.0),
    ])
    assert bad == 1
    assert "REGRESSION" in capsys.readouterr().out


# ----------------------------------------------------------------------
# end to end: the CLI's sweep writes the committed seed table


def test_cli_sweep_writes_only_the_seed_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert bench_main(["prog", "E15", "--seeds", "2", "--jobs", "1"]) == 0
    assert os.listdir(str(tmp_path)) == ["e15.seeds.txt"]
    text = (tmp_path / "e15.seeds.txt").read_text()
    assert "seeds 0..1:" in text
    assert "percpu  scan_per_pick" in text
    assert capsys.readouterr().out.endswith("all claims hold\n")


def test_cli_sweep_is_byte_identical_across_job_counts(tmp_path, monkeypatch):
    tables = []
    for jobs in ("1", "2"):
        directory = tmp_path / ("jobs" + jobs)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(directory))
        assert bench_main(["prog", "E1", "E15", "--seeds", "2",
                           "--jobs", jobs]) == 0
        tables.append({name: (directory / name).read_bytes()
                       for name in os.listdir(str(directory))})
    assert sorted(tables[0]) == ["e1.seeds.txt", "e15.seeds.txt"]
    assert tables[0] == tables[1]
    # every E1 row reaches the table: 4 mechanisms x 3 image sizes
    e1 = tables[0]["e1.seeds.txt"].decode().splitlines()
    assert sum(line.split()[1:2] == ["cycles"] for line in e1) == 12


def test_cli_sweep_fails_and_names_the_seed_a_claim_fails_under(
        tmp_path, monkeypatch, capsys):
    def run_stub(seed=None):
        """A stub experiment whose first claim fails under seed 1 only."""
        result = ExperimentResult("EX", "stub", ["name", "value"])
        result.add_row(name="only", value=seed)
        result.claim("seed 1 is never drawn", seed != 1)
        result.claim("always", True)
        return result

    monkeypatch.setitem(ALL_EXPERIMENTS, "EX", run_stub)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert bench_main(["prog", "EX", "--seeds", "3", "--jobs", "1"]) == 1
    assert "1 claim(s) FAILED" in capsys.readouterr().out
    text = (tmp_path / "ex.seeds.txt").read_text()
    assert "[FAIL] seed 1 is never drawn — fails under seed(s) 1\n" in text
    assert "[ok  ] always\n" in text
    assert "\nonly  value   1.000  0    2    0 1 2\n" in text
