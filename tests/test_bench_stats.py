"""The statistical claims harness: bootstrap CIs, sweeps, gating."""

import importlib.util
import json
import os

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.harness import ExperimentResult
from repro.bench.stats import bootstrap_ci, extract_metrics, run_sweep, summarize


# ----------------------------------------------------------------------
# the bootstrap


def test_bootstrap_ci_is_seed_deterministic_and_ordered():
    values = [10.0, 12.0, 9.0, 11.0, 13.0, 10.5]
    lo1, hi1 = bootstrap_ci(values, seed=0)
    lo2, hi2 = bootstrap_ci(values, seed=0)
    assert (lo1, hi1) == (lo2, hi2)
    assert lo1 <= sum(values) / len(values) <= hi1
    assert min(values) <= lo1 <= hi1 <= max(values)


def test_bootstrap_ci_degenerate_inputs():
    assert bootstrap_ci([]) == (0.0, 0.0)
    assert bootstrap_ci([7.0]) == (7.0, 7.0)
    # identical samples -> zero-width interval
    lo, hi = bootstrap_ci([5.0] * 8)
    assert lo == hi == 5.0


def test_summarize_shape():
    stat = summarize([1.0, 2.0, 3.0])
    assert stat["n"] == 3
    assert stat["mean"] == 2.0
    assert stat["min"] == 1.0 and stat["max"] == 3.0
    assert stat["ci_lo"] <= stat["mean"] <= stat["ci_hi"]
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


def test_experiment_result_json_includes_stats_when_attached(tmp_path):
    result = ExperimentResult("EX", "t", ["mode", "cycles"])
    result.add_row(mode="fast", cycles=100)
    assert "stats" not in result.to_json_dict()
    result.stats = {"fast": {"cycles": summarize([100.0, 102.0])}}
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["stats"]["fast"]["cycles"]["n"] == 2


# ----------------------------------------------------------------------
# the sweep (serial path; the Pool path differs only in transport)


def test_sweep_serial_collects_per_seed_samples_and_cis():
    sweep = run_sweep("e15", nseeds=2, jobs=1, rounds=4)
    assert sweep.failed_claims == []
    samples = sweep.samples()
    assert set(samples) == {"global", "percpu"}
    assert len(samples["percpu"]["makespan_cycles"]) == 2
    stats = sweep.stats(n_resamples=200)
    stat = stats["percpu"]["makespan_cycles"]
    assert stat["n"] == 2
    assert stat["ci_lo"] <= stat["mean"] <= stat["ci_hi"]
    assert "makespan_cycles" in sweep.render()


def test_sweep_same_seed_reproduces_identical_metrics():
    one = run_sweep("e15", nseeds=1, jobs=1, rounds=4)
    two = run_sweep("e15", nseeds=1, jobs=1, rounds=4)
    assert one.runs[0]["metrics"] == two.runs[0]["metrics"]


# ----------------------------------------------------------------------
# the CI-overlap gate in benchmarks/compare_bench.py


def _load_compare_bench():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "compare_bench.py")
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_json(tmp_path, name, value, ci, with_stats=True):
    doc = {
        "experiment": "E15",
        "columns": ["scheduler", "scan_per_pick"],
        "rows": [{"scheduler": "percpu", "scan_per_pick": value}],
    }
    if with_stats:
        doc["stats"] = {
            "percpu": {
                "scan_per_pick": {
                    "mean": value, "ci_lo": ci[0], "ci_hi": ci[1], "n": 10,
                }
            }
        }
    path = str(tmp_path / name)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


@pytest.mark.parametrize(
    "base_ci,cand_ci,cand,expected",
    [
        # overlapping CIs: not a resolved regression
        ((4.0, 5.0), (4.8, 6.0), 5.4, 0),
        # candidate CI entirely above baseline CI: regression
        ((4.0, 5.0), (5.1, 6.0), 5.5, 1),
        # candidate improved: fine
        ((4.0, 5.0), (3.0, 3.9), 3.5, 0),
    ],
)
def test_compare_bench_gates_on_ci_overlap(tmp_path, base_ci, cand_ci,
                                           cand, expected, capsys):
    compare_bench = _load_compare_bench()
    prev = _bench_json(tmp_path, "prev.json", sum(base_ci) / 2, base_ci)
    cur = _bench_json(tmp_path, "cur.json", cand, cand_ci)
    code = compare_bench.main([
        "--previous", prev, "--current", cur,
        "--key", "scheduler", "--gate", "percpu",
        "--metric", "scan_per_pick",
    ])
    out = capsys.readouterr().out
    assert code == expected
    assert "CI overlap" in out
    if expected:
        assert "REGRESSION" in out
        assert "scan_per_pick" in out  # the delta table names the metric


def test_compare_bench_falls_back_to_threshold_without_stats(tmp_path, capsys):
    compare_bench = _load_compare_bench()
    prev = _bench_json(tmp_path, "prev.json", 4.0, (0, 0), with_stats=False)
    cur = _bench_json(tmp_path, "cur.json", 5.5, (0, 0), with_stats=False)
    code = compare_bench.main([
        "--previous", prev, "--current", cur,
        "--key", "scheduler", "--gate", "percpu",
        "--metric", "scan_per_pick", "--threshold", "0.25",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "threshold" in out


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
        "--host",
        "--previous", host_json("p.json", 1_000_000.0),
        "--current", host_json("c.json", 900_000.0),
    ])
    assert ok == 0  # within the generous runner-noise threshold
    bad = compare_bench.main([
        "--host",
        "--previous", host_json("p2.json", 1_000_000.0),
        "--current", host_json("c2.json", 400_000.0),
    ])
    assert bad == 1
    assert "REGRESSION" in capsys.readouterr().out


# ----------------------------------------------------------------------
# end to end: the CLI's seed sweep writes the file CI's gate reads


@pytest.mark.parametrize(
    "eid,key,gate,metric",
    [
        ("E15", "scheduler", "percpu", "scan_per_pick"),
        ("E16", "vm_index", "indexed", "scan_per_fault"),
    ],
)
def test_cli_seed_sweep_feeds_the_ci_overlap_gate(tmp_path, monkeypatch,
                                                  capsys, eid, key, gate,
                                                  metric):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert bench_main(["prog", eid, "--seeds", "2", "--jobs", "1"]) == 0
    path = str(tmp_path / ("BENCH_%s.json" % eid))
    with open(path) as handle:
        stat = json.load(handle)["stats"][gate][metric]
    assert stat["ci_lo"] <= stat["mean"] <= stat["ci_hi"]
    capsys.readouterr()

    code = _load_compare_bench().main([
        "--previous", path, "--current", path,
        "--key", key, "--gate", gate, "--metric", metric,
    ])
    assert code == 0
    assert "gate (CI overlap" in capsys.readouterr().out
