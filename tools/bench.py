"""Record the benchmark's numbers for this tree in BENCH_<YYYY-MM-DD>.json.

For each workload it runs ``perfbench/run.py`` unchanged, as a
subprocess at seed 0: once at ``--trace 0`` for ``--seconds``, whose raw
record (``.perfbench/run-<workload>-seed0.json``) holds every repetition,
then once at ``--trace 1`` for the per-layer metrics.  The file holds
the median and quartiles of ``wall_s``, ``peak_rss_mb`` and ``setup_s``
over the repetitions, each command's median wall, the traced metrics,
the commit, the host, the versions and ``tools/src_lines.py``'s counts
of ``src/``.  It also names the uniform path that ran (``rng_path``:
the compiled kernel or numpy), and times mc_long's command list
in-process at ``--threads 1`` and ``--threads 2``, best of two per
command (``mc_long_threads``).  Besides the package, standard library
only.  Run from the repository root:

    python3 tools/bench.py [--seconds 15]
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import src_lines

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("mc_short", "mc_long", "exact_lane")
SEED = 0  # perfbench's default seed, the one the benchmark runs at
THREAD_ROUNDS = 2

# what the metrics cannot show, next to the metrics they affect
CAVEATS = {
    "setup_s": (
        "includes compiling the package's sources wherever PYTHONDONTWRITEBYTECODE is set: "
        "perfbench's untimed first set-up child is meant to fill the bytecode cache, but no "
        "__pycache__ is written, so every set-up sample compiles src/ again; scipy is "
        "imported only where the compiled kernel did not load; where the kernel's library "
        "is missing, perfbench's untimed first set-up child compiles it (about 50 ms), and "
        "no timed sample does"
    ),
    "trace.overhead_frac": (
        "noise on exact_lane: its whole traced command list runs in about 0.01 s, so the "
        "difference between the traced and the plain run is timer and scheduling noise"
    ),
}


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values`` (every one of them for a single value)."""
    n, median = len(values), statistics.median(values)
    # quantiles needs two points; one value is its own quartiles
    q1, _, q3 = statistics.quantiles(values * 2 if n == 1 else values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": n}


def summarize(raw: dict, commands: list[str]) -> dict:
    """The end-to-end metrics of one ``--trace 0`` run's raw record."""
    reps = raw["reps"]
    return {
        "end_to_end": {
            "wall_s": spread([sum(r["walls"]) for r in reps]),
            "peak_rss_mb": spread([r["maxrss_kb"] / 1024.0 for r in reps]),
            "setup_s": spread(raw["setups"]),
        },
        "command_wall_s": {
            cmd: statistics.median(r["walls"][i] for r in reps) for i, cmd in enumerate(commands)
        },
    }


def perfbench(workload: str, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """(the result line, the '# ...' notes) of one run of perfbench/run.py."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    # its stderr (progress, a failing child's traceback) passes through
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [line[2:] for line in lines if line.startswith("# ")]


def thread_table() -> dict:
    """mc_long's command list run in-process at one and at two threads:
    each command's best wall of ``THREAD_ROUNDS``, alternating which count
    goes first, and the list's total of them."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from masstransport.cli import main
    from workloads import WORKLOADS as LISTS

    walls: dict[int, dict[str, float]] = {1: {}, 2: {}}
    for r in range(THREAD_ROUNDS):
        for threads in (1, 2) if r % 2 == 0 else (2, 1):
            for cmd in LISTS["mc_long"]:
                argv = cmd.with_seed(SEED)
                argv[argv.index("--spec") + 1] = str(ROOT / cmd.spec)
                argv[argv.index("--threads") + 1] = str(threads)
                key = cmd.key.replace(" --threads 2", "")
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                wall = time.perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"{key} at --threads {threads} exited {code}")
                walls[threads][key] = min(wall, walls[threads].get(key, wall))
    table = {str(t): {"total_s": sum(w.values()), "command_wall_s": w} for t, w in walls.items()}
    table["speedup"] = table["1"]["total_s"] / table["2"]["total_s"]
    return table


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def bench(seconds: float) -> dict:
    record: dict = {
        "date": datetime.date.today().isoformat(),
        "command": f"python3 tools/bench.py --seconds {seconds:g}",
        "commit": git("rev-parse", "HEAD"),
        # tracked files changed since that commit: the numbers are not the commit's
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines.count_tree(ROOT / "src"),
        "seed": SEED,
        "seconds": seconds,
        "caveats": CAVEATS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        result, notes = perfbench(workload, seconds, 0)
        raw = json.loads((ROOT / ".perfbench" / f"run-{workload}-seed{SEED}.json").read_text())
        commands = [n.split("  ", 1)[1] for n in notes if n.startswith("command ")]
        traced, _ = perfbench(workload, seconds, 1)
        record["versions"] = raw["reps"][0]["versions"]
        record["workloads"][workload] = {
            "correct": result["correct"] and traced["correct"],
            "attempted": result["attempted"] + traced["attempted"],
            "failed": result["failed"] + traced["failed"],
            **summarize(raw, commands),
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    # after the runs: their first set-up child builds the kernel if it must
    record["mc_long_threads"] = thread_table()
    from masstransport import rng  # imported from src/ by thread_table

    record["rng_path"] = rng.uniform_path()
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=15.0, help="per --trace 0 run (default 15)")
    args = p.parse_args(argv)
    record = bench(args.seconds)
    out = ROOT / f"BENCH_{record['date']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
