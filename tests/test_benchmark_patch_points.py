"""The names the benchmark's traced run patches still exist and still run.

``perfbench/spans.py`` wraps package functions by name where their
callers look them up.  A rename in ``src`` would break the traced run
only; this test loads ``spans.py`` by path (its own test directory has a
``conftest`` of the same module name as this one), traces one exact and
one Monte Carlo identity run and checks that the spans of their layers
appear and that tracing leaves stdout unchanged.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from masstransport import cli, ergodic, make_process, parse_spec_file, rng, verify

from conftest import spec_path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"
ARGV = ["verify-identity", "--spec", str(spec_path("p06_walk")), "--mode", "exact", "--horizon", "4"]
MC_TRIALS, MC_HORIZON = 5000, 6
MC_ARGV = [
    "verify-identity", "--spec", str(spec_path("p06_walk")), "--horizon", str(MC_HORIZON),
    "--trials", str(MC_TRIALS), "--threads", "2", "--seed", "3",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(argv, capsys) -> list[dict]:
    """The spans of one traced run of argv, which prints what it prints untraced."""
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        undo()
    assert capsys.readouterr().out == untraced
    return tracer.spans


def test_traced_exact_identity_records_its_layers(capsys):
    # the identity folds (state, U) and calls no per-window transport function
    names = {s["name"] for s in traced_run(ARGV, capsys)}
    assert "verify.exact_identity" in names


def test_traced_mc_identity_records_its_layers(capsys):
    elements: dict[str, int] = {}
    for span in traced_run(MC_ARGV, capsys):
        elements[span["name"]] = elements.get(span["name"], 0) + span.get("elements", 0)
    # each side draws one increment of every trial, then whole windows of
    # the trials whose X_1 > 0 (left) or X_0 < 0 (right)
    process = make_process(parse_spec_file(spec_path("p06_walk")))
    trials = np.arange(2 * MC_TRIALS, dtype=np.uint64)
    x1 = process.sample_block(3, trials[:MC_TRIALS], 0, 1)
    x0 = process.sample_block(3, trials[MC_TRIALS:], -1, 0)
    sent, received = int((x1 > 0).sum()), int((x0 < 0).sum())
    assert 0 < sent < MC_TRIALS and 0 < received < MC_TRIALS
    assert elements["transport.sent_mass_terms"] == sent * MC_HORIZON
    assert elements["transport.received_mass_terms"] == received * MC_HORIZON
    drawn = 2 * MC_TRIALS + (sent + received) * MC_HORIZON
    assert elements["processes.iid_discrete.sample_block"] == drawn
    assert "verify.mc_identity" in elements


def test_the_patched_names_keep_their_signatures():
    for module in (verify, ergodic):
        params = inspect.signature(module._run_chunks).parameters
        assert list(params) == ["total", "threads", "worker", "width"]
        assert params["width"].default == 1
    for name in ("exact_window_distribution", "mass_row", "mass_received_at_zero"):
        assert callable(getattr(verify, name)), name
    block = list(inspect.signature(rng.uniform_block).parameters)
    assert block[:4] == ["seed", "stream", "trials", "positions"]
    column = list(inspect.signature(rng.uniform_column).parameters)
    assert column == ["seed", "stream", "trials", "position"]
