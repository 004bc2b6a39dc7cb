"""Record the reference results that ``checks.py`` compares against.

For every workload command, at the default seed and ``--threads 1``, this
stores the SHA-256 of the output bytes and, for exact commands, the
rational values of every row.  Run it from the root of a checkout whose
outputs are the reference, and commit the rewritten ``golden.json``:

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json

import checks
from child import run_command
from workloads import DEFAULT_SEED, WORKLOADS


def single_threaded(argv: list[str]) -> list[str]:
    if "--threads" in argv:
        argv = list(argv)
        argv[argv.index("--threads") + 1] = "1"
    return argv


def main() -> None:
    from masstransport.cli import main as cli_main

    golden: dict = {"seed": DEFAULT_SEED, "threads": 1, "digests": {}, "exact": {}}
    for commands in WORKLOADS.values():
        for cmd in commands:
            code, text, wall = run_command(cli_main, single_threaded(cmd.with_seed(DEFAULT_SEED)))
            if code != 0:
                raise SystemExit(f"{cmd.key}: exit code {code}")
            golden["digests"][cmd.key] = checks.digest(text)
            if cmd.is_exact:
                golden["exact"][cmd.key] = checks.exact_values(text)
            print(f"{wall:8.3f} s  {cmd.key}")
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
