"""One fresh interpreter that sets up masstransport and runs one workload.

Started by ``run.py`` with ``src`` of the checkout on ``PYTHONPATH``; prints
one JSON object on stdout.  Modes:

* ``setup``: import ``masstransport.cli``, parse and build every spec the
  workload uses, and report the times;
* ``run``: set up, then run the workload's command list once, untraced,
  and check every output;
* ``trace``: set up, install the span wrappers, run the list once, check
  it, probe ``rng.uniform_block`` at fixed block sizes, and write the spans
  to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
from workloads import WORKLOADS, Command, spec_paths


def set_up(root: str, workload: str) -> tuple[object, dict]:
    """Import the CLI and build every spec of the workload; returns (cli, times)."""
    t0 = time.perf_counter()
    from masstransport import cli

    t1 = time.perf_counter()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"masstransport was imported from {cli.__file__}, not from {src}")
    from masstransport.processes import make_process
    from masstransport.specio import parse_spec_file

    specs = [parse_spec_file(os.path.join(root, p)) for p in spec_paths(workload)]
    t2 = time.perf_counter()
    for spec in specs:
        make_process(spec)
    t3 = time.perf_counter()
    return cli, {"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": t3 - t2, "total_s": t3 - t0}


def run_command(main, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout text, wall seconds) of one in-process CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is one failed operation; the rest still run
        traceback.print_exc()
        code = -1
    return code, out.getvalue(), time.perf_counter() - t0


def run_list(cli, commands: tuple[Command, ...], seed: int, golden: dict) -> dict:
    """Run the command list once, then check every output.

    Returns per-command walls and problems, and the child's peak RSS taken
    before the checks run.
    """
    results = [run_command(cli.main, cmd.with_seed(seed)) for cmd in commands]
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "walls": [wall for _, _, wall in results],
        "problems": [
            checks.problems(cmd, code, text, seed, golden)
            for cmd, (code, text, _) in zip(commands, results)
        ],
        "maxrss_kb": maxrss_kb,
    }


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    cli, setup = set_up(args.root, args.workload)
    result: dict = {"setup": setup}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    commands = WORKLOADS[args.workload]
    golden = checks.load_golden()
    result["versions"] = versions()
    if args.mode == "run":
        result.update(run_list(cli, commands, args.seed, golden))
        print(json.dumps(result))
        return 0

    import spans
    from masstransport import rng

    uniform_block = rng.uniform_block
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        result.update(run_list(cli, commands, args.seed, golden))
    finally:
        undo()
    layers = spans.layer_metrics(tracer.spans)
    layers.update(spans.tile_probe(uniform_block, args.seed))
    result["layers"] = layers
    if args.spans_out:
        with open(args.spans_out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
