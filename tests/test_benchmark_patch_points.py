"""The names the benchmark's traced run patches still exist and still run.

``perfbench/spans.py`` wraps package functions by name where their
callers look them up.  A rename in ``src`` would break the traced run
only; this test loads ``spans.py`` by path (its own test directory has a
``conftest`` of the same module name as this one), traces one exact
identity run and checks that the spans of its layers appear and that
tracing leaves stdout unchanged.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from masstransport import cli

from conftest import spec_path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"
ARGV = ["verify-identity", "--spec", str(spec_path("p06_walk")), "--mode", "exact", "--horizon", "4"]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_exact_identity_records_its_layers(capsys):
    assert cli.main(ARGV) == 0
    untraced = capsys.readouterr().out
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert cli.main(ARGV) == 0
    finally:
        undo()
    assert capsys.readouterr().out == untraced
    names = {s["name"] for s in tracer.spans}
    for name in ("verify.exact_identity", "transport.mass_row", "transport.mass_received_at_zero"):
        assert name in names, name
