"""The committed BENCH_<date>.json: the benchmark's numbers for one tree,
as ``tools/bench.py`` writes them."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from conftest import EXACT_NAMES

ROOT = Path(__file__).parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def latest_record() -> tuple[Path, dict]:
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_<date>.json at the repository root"
    return paths[-1], json.loads(paths[-1].read_text())


def test_the_latest_bench_record_names_its_tree_and_host():
    path, record = latest_record()
    assert re.fullmatch(r"BENCH_\d{4}-\d{2}-\d{2}\.json", path.name)
    assert record["date"] == path.stem.removeprefix("BENCH_")
    assert record["command"].startswith("python3 tools/bench.py ")
    assert re.fullmatch("[0-9a-f]{40}", record["commit"]) and isinstance(record["dirty"], bool)
    assert record["cpu_count"] >= 1
    assert set(record["versions"]) == {"python", "numpy", "scipy"}
    lines = record["src_lines"]["all"]
    assert lines["total"] == sum(lines[c] for c in ("code", "docstring", "comment", "blank"))
    assert set(record["caveats"]) == {"setup_s", "trace.overhead_frac"}
    assert record["rng_path"] in ("compiled", "numpy")


def test_the_latest_bench_record_times_mc_long_at_one_and_two_threads():
    _, record = latest_record()
    table = record["mc_long_threads"]
    listed = record["workloads"]["mc_long"]["command_wall_s"]
    commands = {c.replace(" --threads 2", "") for c in listed}
    for threads in ("1", "2"):
        walls = table[threads]["command_wall_s"]
        assert set(walls) == commands and all(t > 0 for t in walls.values())
        assert table[threads]["total_s"] == pytest.approx(sum(walls.values()))
    assert table["speedup"] == pytest.approx(table["1"]["total_s"] / table["2"]["total_s"])


def test_the_latest_bench_record_holds_every_workload_and_metric():
    _, record = latest_record()
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, w in record["workloads"].items():
        assert w["correct"] and w["failed"] == 0 and w["attempted"] > 0, name
        for metric in BENCHMARK["end_to_end"]:
            s = w["end_to_end"][metric["name"]]
            assert s["n"] >= 1 and 0 < s["q1"] <= s["median"] <= s["q3"], (name, metric)
        assert w["command_wall_s"] and all(t > 0 for t in w["command_wall_s"].values())
        assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(w["per_layer"]), name
        draws = w["per_layer"]["rng.uniforms"]
        assert draws == 0 if name == "exact_lane" else draws > 0


def test_the_latest_bench_record_times_each_acceptance_criterion():
    _, record = latest_record()
    criteria = record["criteria_s"]
    assert set(criteria) == {str(n) for n in range(1, 8)}
    for n, c in criteria.items():
        assert c["verdict"] == "PASS", n
        # criterion 3 shares criterion 2's corpus and prints no time
        assert c["s"] is None if n == "3" else c["s"] >= 0, n


def test_the_latest_bench_record_times_the_exact_lane_against_the_horizon():
    _, record = latest_record()
    table = record["exact_horizons"]
    assert set(table) == set(EXACT_NAMES)
    for name, lanes in table.items():
        assert set(lanes) == {"exact_identity", "exact_survival"}, name
        assert set(lanes["exact_identity"]) == {"64", "128", "256", "512", "1024"}, name
        assert set(lanes["exact_survival"]) == {"256", "512", "1024", "2048"}, name
        for rows in lanes.values():
            for row in rows.values():
                assert set(row) == {"s", "refused"} and row["s"] > 0, name
                assert row["refused"] is None or isinstance(row["refused"], str), name


def test_spread_gives_the_median_and_quartiles(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench = importlib.import_module("bench")
    assert bench.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    raw = {"setups": [0.5, 0.25], "reps": [{"walls": [1.0, 2.0], "maxrss_kb": 2048}]}
    summary = bench.summarize(raw, ["a", "b"])
    assert summary["end_to_end"]["wall_s"]["median"] == pytest.approx(3.0)
    assert summary["end_to_end"]["peak_rss_mb"]["median"] == 2.0
    assert summary["command_wall_s"] == {"a": 1.0, "b": 2.0}


def test_criterion_time_reads_a_verdict_line(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench = importlib.import_module("bench")
    assert bench.criterion_time(".criterion 1 (exact identity, n <= 8, 0.1s): PASS") == (
        "1", {"s": 0.1, "verdict": "PASS"}
    )
    # the total comes first, before a colon and its breakdown
    line = "criterion 6 (gap 0.0100 <= 0.02, dips ['0.0012'], 12.8s: trajectories 7.9s): FAIL"
    assert bench.criterion_time(line) == ("6", {"s": 12.8, "verdict": "FAIL"})
    assert bench.criterion_time("criterion 3 (telescoping, same corpus): PASS") == (
        "3", {"s": None, "verdict": "PASS"}
    )
    assert bench.criterion_time("tests/test_acceptance.py .") is None
    assert bench.EXACT_NAMES == tuple(EXACT_NAMES)
