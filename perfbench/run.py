"""Benchmark of the masstransport CLI: three workloads, end to end and per layer.

Run from a checkout that holds ``src/`` and ``specs/``:

    python3 perfbench/run.py --workload mc_long --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with the package untouched:

* ``setup_s``: median, over fresh interpreters, of importing
  ``masstransport.cli`` and parsing and building every spec the workload
  uses (two set-up-only children per repetition, plus the repetition's
  own child);
* ``wall_s``: median, over repetitions, of the wall time of the
  workload's command list (set-up excluded);
* ``peak_rss_mb``: median, over repetitions, of ``ru_maxrss``.

Each repetition is one fresh child interpreter that runs the whole list,
so all load comes from that one process and its peak memory is its own.
Repetitions, with their set-up children, go on while the next one still
fits in ``--seconds`` (at least one).

It also prints ``increments_per_s`` (for the Monte Carlo workloads) and
``ops_failed_frac`` on the lines before the result; they are carried by
``wall_s`` and by ``attempted``/``failed`` in the result.

``--trace 1`` runs the list once untraced and once in a child with span
wrappers installed (see ``spans.py``), and reports the per-layer metrics
and ``trace.overhead_frac``.

Every command's output is checked (see ``checks.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Without ``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up-only children per repetition; with the repetition's own set-up
# they spread the set-up samples over the whole run
SETUP_PER_REP = 2
# every run ends within this many seconds, children included
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".perfbench"


class BenchError(Exception):
    pass


class Runner:
    """Starts child interpreters against ``ROOT/src`` within one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("MASSTRANSPORT_THREADS", None)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def child(self, mode: str, *extra: str) -> dict:
        argv = [
            sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode, *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next child")
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} child timed out after {e.timeout:.0f} s") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def count_ops(results: list[dict], commands) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every command of every child."""
    attempted = failed = 0
    messages = []
    for result in results:
        for cmd, problems in zip(commands, result["problems"]):
            attempted += 1
            failed += bool(problems)
            messages.extend(f"{cmd.key}: {p}" for p in problems)
    return attempted, failed, messages


def metadata(versions: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"commit": commit, "nproc": os.cpu_count(), **versions, "src_loc": loc}


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict, list[str]]:
    runner.child("setup")  # fills the bytecode cache; not timed
    setups: list[float] = []
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        rep_start = time.monotonic()
        setups += [runner.child("setup")["setup"]["total_s"] for _ in range(SETUP_PER_REP)]
        reps.append(runner.child("run"))
        setups.append(reps[-1]["setup"]["total_s"])
        now = time.monotonic()
        if now - started + (now - rep_start) > seconds:
            break
    commands = WORKLOADS[runner.workload]
    wall_s = statistics.median(sum(r["walls"]) for r in reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in reps) / 1024.0, "MiB"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    raw_out = OUT_DIR / f"run-{runner.workload}-seed{runner.seed}.json"
    raw_out.write_text(json.dumps({"setups": setups, "reps": reps}))
    notes = [
        f"raw results written to {raw_out.relative_to(ROOT)}",
        f"set-up samples {len(setups)}",
        "repetition walls " + " ".join(f"{sum(r['walls']):.4f}" for r in reps) + " s",
    ]
    for i, cmd in enumerate(commands):
        notes.append(f"command {statistics.median(r['walls'][i] for r in reps):.4f} s  {cmd.key}")
    increments = sum(c.increments for c in commands)
    if increments:
        notes.append(f"increments_per_s {increments / wall_s:.6g} 1/s")
    return reps, metrics, notes


def per_layer(runner: Runner) -> tuple[list[dict], dict, list[str]]:
    plain = runner.child("run")
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans-{runner.workload}-seed{runner.seed}.json"
    traced = runner.child("trace", "--spans-out", str(spans_out))
    setup = traced["setup"]
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["specio.parse_spec_file_s"] = (setup["parse_s"], "s")
    metrics["processes.make_process_s"] = (setup["build_s"], "s")
    plain_wall = sum(plain["walls"])
    metrics["trace.overhead_frac"] = ((sum(traced["walls"]) - plain_wall) / plain_wall, "ratio")
    notes = [f"spans written to {spans_out.relative_to(ROOT)}"]
    notes += [
        f"absent on {runner.workload}: {name} (this workload does no such work)"
        for name, (value, _) in metrics.items()
        if value == 0 and name != "trace.overhead_frac"
    ]
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="masstransport benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "masstransport" / "cli.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: {ROOT} holds no masstransport sources (src/, specs/)", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            results, metrics, notes = per_layer(runner)
        else:
            results, metrics, notes = end_to_end(runner, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed, messages = count_ops(results, WORKLOADS[args.workload])
    print(f"# meta {json.dumps(metadata(results[0]['versions']))}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for message in sorted(set(messages)):
        print(f"# failed check: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
