"""The trend plotter turns BENCH_TREND.json into SVG + markdown."""

import importlib.util
import json
import os
import xml.dom.minidom

_SPEC = importlib.util.spec_from_file_location(
    "plot_trend",
    os.path.join(os.path.dirname(__file__), os.pardir,
                 "benchmarks", "plot_trend.py"))
plot_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(plot_trend)


def _entry(sha, tput, p99, legacy_host=None):
    entry = {
        "experiment": "E17",
        "time": 1_700_000_000,
        "sha": sha,
        "seeds": 3,
        "metrics": {
            row: {
                "throughput_per_kcycle": {
                    "mean": tput * mult, "ci_lo": tput * mult * 0.98,
                    "ci_hi": tput * mult * 1.02, "n": 3,
                },
                "p99_cycles": {
                    "mean": p99 * mult, "ci_lo": p99 * mult * 0.9,
                    "ci_hi": p99 * mult * 1.1, "n": 3,
                },
            }
            for row, mult in (("x0.30", 0.4), ("x1.80", 1.0))
        },
    }
    if legacy_host:
        # older trend files carry a host block; the plotter ignores it
        entry["host"] = {"sim_cycles_per_host_sec": legacy_host,
                         "wall_seconds": 10.0, "sim_cycles": legacy_host * 10}
    return entry


def test_render_all_writes_valid_artifacts(tmp_path):
    trend = tmp_path / "BENCH_TREND.json"
    trend.write_text(json.dumps({"entries": [
        _entry("aaa111", 3.0, 4_000_000, legacy_host=180_000),
        _entry("bbb222", 3.3, 3_600_000),
    ]}))
    out = tmp_path / "out"
    written = plot_trend.render_all(str(trend), str(out))
    names = {os.path.basename(path) for path in written}
    assert names == {"trend_E17.svg", "TREND.md"}
    for path in written:
        assert os.path.getsize(path) > 0
        if path.endswith(".svg"):
            xml.dom.minidom.parse(path)  # well-formed

    digest = (out / "TREND.md").read_text()
    assert "E17" in digest and "bbb222" in digest
    assert "throughput_per_kcycle" in digest
    assert "+10.0%" in digest          # 3.0 -> 3.3 delta vs previous run
    assert "sim cycles / host second" not in digest


def test_headline_metric_priority():
    runs = [{"metrics": {"row": {"p99_cycles": {}, "zzz": {},
                                 "throughput_per_kcycle": {}}}}]
    assert plot_trend.headline_metric(runs) == "throughput_per_kcycle"
    assert plot_trend.headline_metric([{"metrics": {}}]) is None


def test_empty_trend_still_writes_digest(tmp_path):
    trend = tmp_path / "BENCH_TREND.json"
    trend.write_text(json.dumps({"entries": []}))
    written = plot_trend.render_all(str(trend), str(tmp_path / "out"))
    assert [os.path.basename(p) for p in written] == ["TREND.md"]
