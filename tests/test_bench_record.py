"""The committed BENCH_<date>.json: the benchmark's numbers for one tree,
as ``tools/bench.py`` writes them."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

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
