"""Command line surface: exit codes, schemas, golden outputs, spec round trips."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masstransport import (
    InvalidSpec,
    format_spec,
    make_process,
    parse_spec_file,
    parse_spec_text,
    spec_from_jsonable,
    spec_to_jsonable,
)
from masstransport import processes as processes_module
from masstransport import verify as verify_module
from masstransport.cli import THREADS_ENV, build_parser, main

from conftest import EXACT_NAMES, SPEC_NAMES, spec_path

GOLDEN = Path(__file__).parent / "golden"

F = Fraction


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# exit codes and error reporting
# ---------------------------------------------------------------------------


def test_missing_spec_file_exits_2(capsys):
    code, _, err = run(["sample", "--spec", "/nonexistent/x.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["sample", "--spec", str(bad)], capsys)
    assert code == 2
    assert "error:" in err


def test_unknown_kind_names_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "levy_flight"}))
    code, _, err = run(["sample", "--spec", str(bad)], capsys)
    assert code == 2
    assert "$.kind" in err


def test_float_probability_in_json_is_refused(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "iid_discrete", "values": [1, -1], "probs": [0.5, 0.5]}))
    code, _, err = run(["sample", "--spec", str(bad)], capsys)
    assert code == 2
    assert "float" in err


def test_probabilities_not_summing_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "iid_discrete", "values": [1, -1], "probs": ["1/2", "1/3"]}))
    code, _, err = run(["sample", "--spec", str(bad)], capsys)
    assert code == 2
    assert "sum" in err


IID = '{"kind": "iid_discrete", "values": [1, -1], "probs": ["1/2", "1/2"]}'


# JSON's NaN and Infinity parse as floats: each is refused at its path
@pytest.mark.parametrize(
    "text, path",
    [
        ('{"kind": "iid_discrete", "values": [NaN, -1], "probs": ["1/2", "1/2"]}', "$.values[0]"),
        ('{"kind": "markov_chain", "transitions": [[1]], "payoffs": [Infinity]}', "$.payoffs[0]"),
        (
            f'{{"kind": "moving_average", "coefficients": [1, -Infinity], "innovation": {IID}}}',
            "$.coefficients[1]",
        ),
        ('{"kind": "rotation", "pieces": [[0, 1], [0.5, NaN]]}', "$.pieces[1][1]"),
        (
            f'{{"kind": "mixture", "components": [{{"weight": "1/2", "process": {IID}}}, '
            '{"weight": "1/2", "process": {"kind": "markov_chain", "transitions": [[1]], '
            '"payoffs": [NaN]}}]}',
            "$.components[1].process.payoffs[0]",
        ),
        ('{"kind": "iid_gaussian", "mean": NaN, "stddev": 1}', "$.mean"),
        ('{"kind": "iid_gaussian", "mean": 0, "stddev": Infinity}', "$.stddev"),
        ('{"kind": "rotation", "pieces": [[0, 1]], "angle": NaN}', "$.angle"),
    ],
)
def test_non_finite_spec_numbers_exit_2_naming_the_path(text, path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("survival", "verify-maximal"):
        code, out, err = run([command, "--trials", "100", "--spec", str(bad)], capsys)
        assert code == 2 and out == ""
        assert f"{path}: expected a finite number" in err


def test_deep_nesting_exits_2_naming_the_spec_file(tmp_path, capsys):
    mixture = '{"kind": "mixture", "components": [{"weight": 1, "process": '
    texts = {
        "mixture.json": mixture * 200 + IID + "}]}" * 200,
        "arrays.json": "[" * 10**5 + "]" * 10**5,
    }
    for name, text in texts.items():
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run(["sample", "--spec", str(bad)], capsys)
        assert code == 2 and out == ""
        assert f"error: {bad} nests too deeply" in err


# an iid_discrete spec whose one value is 1 followed by 5000 zeros: past
# Python's 4300-digit limit, json.loads raises a plain ValueError
LONG_INTEGER = Path(__file__).parent / "data" / "long_integer.json"


def test_an_over_long_json_integer_exits_2_naming_the_spec_file(capsys):
    for command in ("sample", "verify-identity"):
        code, out, err = run([command, "--spec", str(LONG_INTEGER)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read {LONG_INTEGER}: Exceeds the limit (4300 digits) "
            "for integer string conversion: value has 5001 digits\n"
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_results_that_overflow_to_nan_or_infinity_exit_2_not_as_json(tmp_path, capsys):
    # S_n overflows: the identity's terms turn NaN and the averages
    # infinite; CSV has no nan or inf cells either
    huge = tmp_path / "huge.json"
    huge.write_text('{"kind": "iid_discrete", "values": [1e308, -1], "probs": ["1/2", "1/2"]}')
    for args in (
        ["verify-identity", "--horizon", "3", "--trials", "1000"],
        ["birkhoff", "--n-max", "8", "--trials", "4"],
    ):
        for form in ("json", "csv"):
            code, out, err = run([*args, "--spec", str(huge), "--format", form], capsys)
            assert code == 2 and out == ""
            assert "NaN or infinity" in err


IID_PAIR = '{"kind": "iid_discrete", "values": [%r, %r], "probs": ["1/2", "1/2"]}'


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings fail the test
@pytest.mark.parametrize(
    "command", ["sample", "transport", "verify-identity", "verify-maximal", "survival", "birkhoff"]
)
def test_values_the_float_sums_cannot_carry_exit_2_naming_them(tmp_path, capsys, command):
    huge = tmp_path / "huge.json"
    huge.write_text(IID_PAIR % (1e308, -1))
    for form in ("csv", "json"):
        code, out, err = run([command, "--spec", str(huge), "--format", form], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: values: ") and "would overflow to NaN or infinity" in err


INNOVATION = '{"kind": "iid_discrete", "values": [%r, -1], "probs": ["1/2", "1/2"]}'


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"kind": "markov_chain", "transitions": [["1/2", "1/2"], ["1/2", "1/2"]], '
         '"payoffs": [1e300, -1]}', "payoffs"),
        ('{"kind": "moving_average", "coefficients": [1e300, 1], "innovation": %s}'
         % (INNOVATION % 2), "coefficients"),
        ('{"kind": "moving_average", "coefficients": [1, 1], "innovation": %s}'
         % (INNOVATION % 1e300), "values"),
        ('{"kind": "rotation", "pieces": [[0, 1], [0.5, -1e300]]}', "pieces"),
        ('{"kind": "iid_gaussian", "mean": -1e300, "stddev": 1}', "mean"),
        ('{"kind": "iid_gaussian", "mean": 0, "stddev": 1e300}', "stddev"),
        ('{"kind": "mixture", "components": [{"weight": "1/2", "process": %s}, '
         '{"weight": "1/2", "process": {"kind": "rotation", "pieces": [[0, 1e300]]}}]}'
         % (INNOVATION % 1), "pieces"),
    ],
)
def test_each_kind_names_the_field_its_magnitude_comes_from(tmp_path, capsys, text, field):
    huge = tmp_path / "huge.json"
    huge.write_text(text)
    code, out, err = run(["survival", "--spec", str(huge), "--horizon", "8"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args, length, trials",
    [
        (["verify-identity", "--horizon", "4", "--trials", "100"], 4, 100),
        (["verify-maximal", "--horizon", "4", "--trials", "100"], 4, 100),
        (["survival", "--horizon", "4", "--trials", "100"], 4, 100),
        (["birkhoff", "--n-max", "8", "--trials", "100", "--epsilon", "0.1", "--min-n", "1"], 8, 100),
        (["birkhoff", "--n-max", "8", "--trials", "3"], 8, 3),
        (["transport", "--lo", "-3", "--hi", "3"], 6, 1),
    ],
)
def test_the_largest_accepted_values_give_finite_results(tmp_path, capsys, args, length, trials):
    # the limit: 16 * length * |value| * sqrt(trials) <= sqrt(float max)
    largest = math.sqrt(sys.float_info.max) / (16 * length * math.sqrt(trials))
    spec = tmp_path / "spec.json"
    for scale, accepted in ((0.99, True), (1.01, False)):
        spec.write_text(IID_PAIR % (scale * largest, -scale * largest))
        code, out, err = run([*args, "--spec", str(spec), "--format", "json"], capsys)
        if accepted:
            assert code in (0, 1), err
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        else:
            assert code == 2 and out == "" and err.startswith("error: values: ")


def test_exact_mode_on_gaussian_exits_2(capsys):
    code, _, err = run(
        [
            "verify-identity",
            "--spec",
            str(spec_path("gaussian_drift")),
            "--mode",
            "exact",
            "--horizon",
            "2",
        ],
        capsys,
    )
    assert code == 2


def test_atom_cap_exits_2(capsys):
    code, _, err = run(
        [
            "verify-identity",
            "--spec",
            str(spec_path("p06_walk")),
            "--mode",
            "exact",
            "--horizon",
            "10",
            "--atom-cap",
            "50",
        ],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_exact_survival_runs_at_its_default_horizon(capsys):
    code, out, _ = run(["survival", "--spec", str(spec_path("p06_walk")), "--mode", "exact"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    # the walk's survival limit is 1/5; the truncation bias at 1024 is about 2e-13
    assert rows[0][:2] == ["exact", "1024"]
    assert 0 <= Fraction(rows[0][2]) - F(1, 5) <= float(rows[0][6])


# exact runs that no cap admits: each is refused before its fold runs a step
@pytest.mark.parametrize(
    "args",
    [
        ["survival", "--mode", "exact", "--horizon", f"{10**14}"],
        ["verify-maximal", "--mode", "both", "--horizon", f"{10**14}"],
        ["verify-identity", "--mode", "exact", "--horizon", f"{10**14}"],
    ],
)
def test_exact_runs_past_the_cap_exit_2_at_once(args, capsys):
    code, out, err = run([*args, "--spec", str(spec_path("p06_walk"))], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err and "states" in err


def test_long_moving_average_filter_is_refused_before_its_law_is_built(tmp_path, capsys):
    spec = tmp_path / "ma21.json"
    innovation = {"kind": "iid_discrete", "values": [2, -1], "probs": ["1/2", "1/2"]}
    spec.write_text(
        json.dumps({"kind": "moving_average", "coefficients": [1] * 21, "innovation": innovation})
    )
    code, out, err = run(["survival", "--spec", str(spec), "--mode", "exact", "--horizon", "4"], capsys)
    assert code == 2
    assert "branches" in err
    # Monte Carlo runs, but its mean is positive and it gets no truncation bound
    argv = ["survival", "--spec", str(spec), "--mode", "mc", "--horizon", "4", "--trials", "100"]
    code, out, err = run([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["truncation_bound"] is None


@pytest.mark.parametrize(
    "args",
    [
        ["survival", "--trials", "1"],
        ["verify-maximal", "--trials", "-3"],
        ["birkhoff", "--epsilon", "0.1", "--trials", "0"],
        ["birkhoff", "--epsilon", "0.1", "--trials", "1"],
        ["birkhoff", "--epsilon", "0.1", "--trials", "-3"],
        ["birkhoff", "--trials", "-3"],
    ],
)
def test_too_few_trials_exit_2_naming_trials(args, capsys):
    code, out, err = run([*args, "--spec", str(spec_path("p06_walk"))], capsys)
    assert code == 2
    assert out == ""
    assert "trials" in err


@pytest.mark.parametrize("command, trial", [("sample", -1), ("transport", 2**64)])
def test_out_of_range_trial_exits_2_naming_it(command, trial, capsys):
    argv = [command, "--spec", str(spec_path("two_point")), "--trial"]
    code, out, err = run([*argv, str(trial)], capsys)
    assert code == 2
    assert out == ""
    assert "trial" in err
    # the largest counter value is still a valid trial
    assert run([*argv, str(2**64 - 1)], capsys)[0] == 0


@pytest.mark.parametrize(
    "args, field",
    [
        (["birkhoff", "--epsilon", "nan", "--trials", "100"], "epsilon"),
        (["birkhoff", "--epsilon", "inf", "--trials", "100"], "epsilon"),
        (["transport", "--epsilon", "-1"], "epsilon"),
        (["transport", "--epsilon", "nan"], "epsilon"),
        (["verify-identity", "--z", "-1", "--horizon", "2", "--trials", "100"], "z must"),
        (["verify-identity", "--z", "nan", "--horizon", "2", "--trials", "100"], "z must"),
        (["survival", "--z", "inf", "--horizon", "8", "--trials", "100"], "z must"),
        (["verify-identity", "--mode", "exact", "--horizon", "0"], "horizon"),
        (["verify-identity", "--mode", "exact", "--horizon", "-3"], "horizon"),
        (["verify-identity", "--mode", "exact", "--z", "nan", "--horizon", "2"], "z must"),
        (["birkhoff", "--epsilon", "0.1", "--n-max", "1", "--min-n", "0"], "min_start"),
        (["birkhoff", "--epsilon", "0.1", "--n-max", "0", "--min-n", "0"], "min_start"),
        (["verify-identity", "--mode", "exact", "--horizon", "3", "--atom-cap", "-5"], "atom_cap"),
        (["survival", "--mode", "exact", "--horizon", "3", "--atom-cap", "0"], "atom_cap"),
        (["verify-maximal", "--mode", "exact", "--horizon", "3", "--atom-cap", "-1"], "atom_cap"),
    ],
)
def test_out_of_range_numbers_exit_2_naming_the_field(args, field, capsys):
    code, out, err = run([*args, "--spec", str(spec_path("p06_walk"))], capsys)
    assert code == 2
    assert out == ""
    assert field in err


# sizes no machine holds: each is refused before anything is allocated.
# Walked commands hold no row, so no horizon of theirs is refused
# (test_walked_commands_pass_the_memory_check_at_any_horizon)
@pytest.mark.parametrize(
    "args, field",
    [
        (["survival", "--trials", f"{10**15}"], "trials:"),
        (["verify-identity", "--trials", f"{10**15}"], "trials:"),
        (["birkhoff", "--trials", f"{10**15}"], "trials:"),
        (["birkhoff", "--trials", f"{10**15}", "--epsilon", "0.1"], "trials:"),
        (["verify-identity", "--horizon", f"{10**14}", "--trials", "10"], "horizon:"),
        (["sample", "--hi", f"{10**14}"], f"window [-4, {10**14}]:"),
    ],
)
def test_runs_larger_than_memory_exit_2_naming_the_field(args, field, capsys):
    code, out, err = run([*args, "--spec", str(spec_path("p06_walk"))], capsys)
    assert code == 2
    assert out == ""
    assert field in err and "physical memory" in err


# walks no run would finish: each is refused before anything is drawn
@pytest.mark.parametrize(
    "args, field",
    [
        (["survival", "--horizon", f"{10**14}", "--trials", "10"], "horizon:"),
        (["verify-maximal", "--horizon", f"{10**14}", "--trials", "10"], "horizon:"),
        (["birkhoff", "--n-max", f"{10**14}", "--trials", "10", "--epsilon", "0.1"], "n_max:"),
        (["birkhoff", "--n-max", f"{10**14}", "--trials", "10"], "n_max:"),
        (["survival", "--horizon", f"{2**40}", "--trials", "64"], "trials:"),
        (["birkhoff", "--n-max", f"{2**40}", "--trials", "64"], "trials:"),
    ],
)
def test_walks_past_the_work_cap_exit_2_naming_the_field(args, field, capsys):
    code, out, err = run([*args, "--spec", str(spec_path("p06_walk"))], capsys)
    assert (code, out) == (2, "")
    assert field in err and "increments" in err


@pytest.mark.parametrize(
    "args",
    [
        ["survival", "--horizon", f"{2**40}"],
        ["verify-maximal", "--horizon", f"{2**40}"],
        ["birkhoff", "--n-max", f"{2**40}", "--epsilon", "0.1"],
        ["birkhoff", "--n-max", f"{2**40}"],
    ],
)
def test_walked_commands_pass_the_memory_check_at_any_horizon(args, capsys, monkeypatch):
    # the check alone: the loop that would walk the rows only records
    # that it was reached and fills zeros
    reached = []

    def fill(step, threads, width, *outs):
        reached.append(width)
        for out in outs:
            out[...] = 0

    monkeypatch.setattr(verify_module, "_fill_rows", fill)
    code, out, err = run([*args, "--trials", "2", "--spec", str(spec_path("p06_walk"))], capsys)
    assert (code, err) == (0, "")
    assert len(reached) == 1


def test_out_is_replaced_whole_or_not_at_all(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.csv"
    target.write_text("old contents\n")
    argv = ["sample", "--spec", str(spec_path("two_point")), "--out", str(target)]

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(argv, capsys)
    assert code == 2 and "disk full" in err
    assert target.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    monkeypatch.undo()
    assert run(argv, capsys)[0] == 0
    assert target.read_text().startswith("index,x,s\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_out_keeps_an_old_files_mode_and_gives_a_new_one_the_umask(tmp_path, capsys):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("old contents\n")
    old.chmod(0o600)
    umask = os.umask(0o022)
    try:
        for target in (old, new):
            argv = ["sample", "--spec", str(spec_path("two_point")), "--out", str(target)]
            assert run(argv, capsys)[0] == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(old.stat().st_mode) == 0o600
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert old.read_text() == new.read_text()


def test_out_writes_through_links_and_devices(tmp_path, capsys):
    real, link, hard = tmp_path / "real.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
    real.write_text("old contents\n")
    link.symlink_to(real)
    os.link(real, hard)
    for target in (link, hard, "/dev/null"):
        argv = ["sample", "--spec", str(spec_path("two_point")), "--out", str(target)]
        assert run(argv, capsys)[0] == 0
    assert link.is_symlink() and os.path.samefile(real, hard)
    assert real.read_text().startswith("index,x,s\n")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.csv", "link.csv", "real.csv"]


# ---------------------------------------------------------------------------
# happy paths and schemas
# ---------------------------------------------------------------------------


def test_sample_csv_schema(capsys):
    code, out, _ = run(
        ["sample", "--spec", str(spec_path("two_point")), "--lo", "-2", "--hi", "2"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "x", "s"]
    assert [r[0] for r in rows] == ["-2", "-1", "0", "1", "2"]
    assert rows[0][1] == ""  # no increment at the left edge
    assert rows[2][2] == "0.0"  # anchored at S_0 = 0


def test_sample_json_sums_are_anchored(capsys):
    code, out, _ = run(
        ["sample", "--spec", str(spec_path("p06_walk")), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sums"][-payload["lo"]] == 0
    assert len(payload["values"]) == payload["hi"] - payload["lo"]


def test_transport_consistency_gates_pass(capsys):
    code, out, _ = run(
        ["transport", "--spec", str(spec_path("two_point")), "--seed", "1"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "n", "m", "value"]
    kinds = {r[0] for r in rows}
    assert {"record", "sent_total"} <= kinds


def test_transport_json_reports_pass_flag(capsys):
    for name in SPEC_NAMES:
        code, out, _ = run(
            [
                "transport",
                "--spec",
                str(spec_path(name)),
                "--seed",
                "3",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0, name
        assert json.loads(out)["passed"] is True


def test_identity_exact_csv_has_rational_cells(capsys):
    code, out, _ = run(
        [
            "verify-identity",
            "--spec",
            str(spec_path("two_point")),
            "--mode",
            "exact",
            "--horizon",
            "4",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "n",
        "lhs",
        "rhs",
        "lhs_ci_lo",
        "lhs_ci_hi",
        "rhs_ci_lo",
        "rhs_ci_hi",
        "mode",
        "pass",
    ]
    assert len(rows) == 4
    by_n = {r[0]: r for r in rows}
    assert by_n["2"][1] == "1/4" and by_n["2"][2] == "1/4"
    assert all(r[3] == "" and r[8] == "true" for r in rows)


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_exact_identity_passes_at_long_horizons(name, capsys):
    argv = ["verify-identity", "--spec", str(spec_path(name)), "--mode", "exact"]
    code, out, _ = run([*argv, "--horizon", "128", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == list(range(1, 129))
    assert all(r["pass"] for r in rows)


def test_identity_both_modes_pass_at_the_default_horizon(capsys):
    argv = ["verify-identity", "--spec", str(spec_path("markov_drift")), "--mode", "both"]
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [r["mode"] for r in payload["rows"]] == ["exact"] * 8 + ["mc"] * 8
    assert payload["all_passed"] is True


def test_identity_mc_json_includes_cumulative_sums(capsys):
    code, out, _ = run(
        [
            "verify-identity",
            "--spec",
            str(spec_path("p06_walk")),
            "--mode",
            "mc",
            "--horizon",
            "3",
            "--trials",
            "2000",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [r["n"] for r in payload["rows"]] == [1, 2, 3]
    assert "cumulative_lhs" in payload["rows"][0]


def test_maximal_both_modes(capsys):
    code, out, _ = run(
        [
            "verify-maximal",
            "--spec",
            str(spec_path("two_point")),
            "--mode",
            "both",
            "--horizon",
            "4",
            "--trials",
            "4000",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"]["pass"] is True
    assert payload["mc"]["pass"] is True


def test_survival_reports_truncation_bound(capsys):
    code, out, _ = run(
        [
            "survival",
            "--spec",
            str(spec_path("p06_walk")),
            "--mode",
            "both",
            "--horizon",
            "8",
            "--trials",
            "2000",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["truncation_bound"] == 1.0  # uninformative this early
    assert payload["exact"]["value"] == "20169/78125"  # not yet the 1/5 limit
    assert payload["all_passed"] is True


NEVER_RUINED = {"kind": "iid_discrete", "values": [1, -1], "probs": ["1", "0"]}
# a loss of probability 1/10^300
LIKELY_WIN = {
    "kind": "iid_discrete",
    "values": [1, -2],
    "probs": [f"{10**300 - 1}/{10**300}", f"1/{10**300}"],
}


@pytest.mark.parametrize("mode", ["mc", "exact"])
@pytest.mark.parametrize(
    "spec, bounded",
    [
        (NEVER_RUINED, lambda bound: bound == 0.0),
        (
            {
                "kind": "mixture",
                "components": [
                    {"weight": "1/2", "process": NEVER_RUINED},
                    {"weight": "1/2", "process": json.loads(spec_path("two_point").read_text())},
                ],
            },
            lambda bound: 0.0 < bound <= 1.0,
        ),
        # exp overflows before the tilted radius reaches 1, and the search
        # ends at the last finite probe: rho is about 1.9e-100, and the
        # bound at horizon 8, about 3e-898, is rounded up to the smallest
        # normal float rather than down to 0.0
        (LIKELY_WIN, lambda bound: bound == sys.float_info.min),
    ],
)
def test_survival_with_an_unreachable_or_unlikely_loss_exits_0(spec, bounded, mode, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["survival", "--spec", str(path), "--mode", mode, "--horizon", "8", "--trials", "1000"]
    code, out, err = run([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert bounded(json.loads(out)["truncation_bound"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_truncation_bound_is_not_below_the_bias_it_bounds(fmt, tmp_path, capsys):
    # the bias of horizon 8 is at least survival at 8 less survival at 16,
    # a positive Fraction near 1e-898 that no float holds
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(LIKELY_WIN))
    process = make_process(parse_spec_file(path))
    bias = verify_module.exact_survival(process, 8) - verify_module.exact_survival(process, 16)
    assert bias > 0
    argv = ["survival", "--spec", str(path), "--horizon", "8", "--mode", "both", "--format", fmt]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    if fmt == "json":
        bound = json.loads(out)["truncation_bound"]
    else:
        bounds = {row[-2] for row in parse_csv(out)[1]}
        assert len(bounds) == 1
        bound = float(bounds.pop())
    assert bound > 0.0 and bound >= bias


@contextlib.contextmanager
def all_digits():
    """Lift Python's limit on converting long integers from and to text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_results_past_the_digit_limit_print_in_full(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(LIKELY_WIN))
    argv = ["survival", "--spec", str(path), "--mode", "exact", "--horizon", "64"]
    expected = verify_module.exact_survival(make_process(parse_spec_file(path)), 64)
    limit = sys.get_int_max_str_digits()
    code, csv_out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    code, json_out, err = run([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # restored after writing
    _, [row] = parse_csv(csv_out)
    text = json.loads(json_out)["exact"]["value"]
    assert text == row[2] and len(text) > limit
    with all_digits():
        assert Fraction(text) == expected


# moving averages of positive mean over the p06 and two-point tables
POSITIVE_MOVING_AVERAGES = [
    {
        "kind": "moving_average",
        "coefficients": ["1/2", "1/4", "1/4"],
        "innovation": {"kind": "iid_discrete", "values": [1, -1], "probs": ["3/5", "2/5"]},
    },
    {
        "kind": "moving_average",
        "coefficients": [1, "1/2"],
        "innovation": {"kind": "iid_discrete", "values": [2, -1], "probs": ["1/2", "1/2"]},
    },
]


# exact mean 0, float mean 5.6e-17
ZERO_MEANS_POSITIVE_IN_FLOAT = [
    {"kind": "iid_discrete", "values": [1, -1, -1, -3], "probs": ["1/2", "1/6", "1/3", "0"]},
    {"kind": "iid_discrete", "values": [4, -2, 2, 0, 0], "probs": ["2/11", "5/11", "1/11", "1/11", "2/11"]},
]


@pytest.mark.parametrize("spec", ZERO_MEANS_POSITIVE_IN_FLOAT, ids=["four_values", "five_values"])
def test_a_zero_exact_mean_gets_no_truncation_bound(spec, tmp_path, monkeypatch, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = make_process(parse_spec_file(path))
    assert proc.exact_mean() == 0 and proc.mean() > 0

    def search(*args):
        raise AssertionError("a walk without drift reached the Chernoff search")

    monkeypatch.setattr(processes_module, "_chain_decay", search)
    assert proc.ruin_decay() is None
    argv = ["survival", "--spec", str(path), "--mode", "mc", "--horizon", "8", "--trials", "100"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert {row[header.index("truncation_bound")] for row in rows} == {""}


@pytest.mark.parametrize("spec", POSITIVE_MOVING_AVERAGES, ids=["p06", "two_point"])
def test_positive_moving_averages_print_a_truncation_bound(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["survival", "--spec", str(path), "--mode", "both", "--horizon", "256", "--trials", "500"]
    code, csv_out, _ = run(argv, capsys)
    assert code == 0
    header, rows = parse_csv(csv_out)
    column = header.index("truncation_bound")
    bounds = {float(row[column]) for row in rows}
    code, json_out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0
    [bound] = bounds
    assert 0.0 < bound < 1.0 and json.loads(json_out)["truncation_bound"] == bound


def test_birkhoff_trajectory_csv_row_count(capsys):
    code, out, _ = run(
        [
            "birkhoff",
            "--spec",
            str(spec_path("mixture")),
            "--n-max",
            "16",
            "--trials",
            "5",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["trial", "component", "n", "avg"]
    assert len(rows) == 5 * 5  # grid 1,2,4,8,16 per trial


def test_birkhoff_dip_csv(capsys):
    code, out, _ = run(
        [
            "birkhoff",
            "--spec",
            str(spec_path("p06_walk")),
            "--n-max",
            "256",
            "--trials",
            "200",
            "--epsilon",
            "0.2",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["epsilon", "n_max", "window_start", "side"]
    assert rows[0][2] == "128"


def test_threads_env_sets_default(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    args = build_parser().parse_args(
        ["verify-identity", "--spec", "x.json"]
    )
    assert args.threads == 3
    monkeypatch.delenv(THREADS_ENV)
    args = build_parser().parse_args(["verify-identity", "--spec", "x.json"])
    assert args.threads == 1


@pytest.mark.parametrize("raw", ["abc", "2.5", ""])
def test_malformed_threads_env_exits_2_naming_it(raw, monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV, raw)
    code, out, err = run(["sample", "--spec", str(spec_path("two_point"))], capsys)
    assert code == 2
    assert out == ""
    assert THREADS_ENV in err and repr(raw) in err


def test_only_gaussian_processes_import_scipy():
    script = (
        "import sys; from masstransport import cli, make_process, parse_spec_file; "
        "[make_process(parse_spec_file(p)) for p in sys.argv[1:-1]]; "
        "assert ('scipy' in sys.modules) == (sys.argv[-1] == 'yes'), sorted(sys.modules)"
    )
    others = [str(spec_path(n)) for n in SPEC_NAMES if n != "gaussian_drift"]
    for paths, imported in ((others, "no"), ([str(spec_path("gaussian_drift"))], "yes")):
        proc = subprocess.run(
            [sys.executable, "-c", script, *paths, imported], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "masstransport",
            "verify-identity",
            "--spec",
            str(spec_path("two_point")),
            "--mode",
            "exact",
            "--horizon",
            "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/4" in proc.stdout


# ---------------------------------------------------------------------------
# golden outputs and thread invariance
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = {
    "transport_two_point.csv": [
        "transport",
        "--spec",
        str(spec_path("two_point")),
        "--lo",
        "-4",
        "--hi",
        "4",
        "--seed",
        "1",
    ],
    "identity_mc_p06.csv": [
        "verify-identity",
        "--spec",
        str(spec_path("p06_walk")),
        "--mode",
        "mc",
        "--horizon",
        "4",
        "--trials",
        "4000",
        "--seed",
        "5",
    ],
    "survival_p06.csv": [
        "survival",
        "--spec",
        str(spec_path("p06_walk")),
        "--mode",
        "both",
        "--horizon",
        "8",
        "--trials",
        "2000",
        "--seed",
        "9",
    ],
    "birkhoff_mixture.csv": [
        "birkhoff",
        "--spec",
        str(spec_path("mixture")),
        "--n-max",
        "64",
        "--trials",
        "8",
        "--seed",
        "2",
    ],
    # JSON output, pinned separately since its shapes differ from the CSV rows
    "sample_p06.json": [
        "sample",
        "--spec",
        str(spec_path("p06_walk")),
        "--seed",
        "3",
        "--format",
        "json",
    ],
    "transport_two_point.json": [
        "transport",
        "--spec",
        str(spec_path("two_point")),
        "--lo",
        "-6",
        "--hi",
        "3",
        "--seed",
        "3",
        "--format",
        "json",
    ],
    "identity_both_p06.json": [
        "verify-identity",
        "--spec",
        str(spec_path("p06_walk")),
        "--mode",
        "both",
        "--horizon",
        "4",
        "--trials",
        "4000",
        "--seed",
        "5",
        "--format",
        "json",
    ],
    "maximal_both_two_point.json": [
        "verify-maximal",
        "--spec",
        str(spec_path("two_point")),
        "--mode",
        "both",
        "--horizon",
        "6",
        "--trials",
        "4000",
        "--seed",
        "6",
        "--format",
        "json",
    ],
    "survival_both_p06.json": [
        "survival",
        "--spec",
        str(spec_path("p06_walk")),
        "--mode",
        "both",
        "--horizon",
        "8",
        "--trials",
        "2000",
        "--seed",
        "9",
        "--format",
        "json",
    ],
    "birkhoff_markov.json": [
        "birkhoff",
        "--spec",
        str(spec_path("markov_drift")),
        "--n-max",
        "64",
        "--trials",
        "6",
        "--seed",
        "1",
        "--format",
        "json",
    ],
    "birkhoff_dip_p06.json": [
        "birkhoff",
        "--spec",
        str(spec_path("p06_walk")),
        "--n-max",
        "256",
        "--trials",
        "200",
        "--epsilon",
        "0.2",
        "--seed",
        "7",
        "--format",
        "json",
    ],
}


def _lane_run(command: str, spec: str, mode: str, fmt: str) -> list[str]:
    return [
        command, "--spec", str(spec_path(spec)), "--mode", mode,
        "--horizon", "8", "--trials", "2000", "--seed", "9", "--format", fmt,
    ]


# verify-maximal and survival in each --mode and --format (survival's
# `both` pair is survival_p06.csv and survival_both_p06.json above), and a
# survival run with no truncation bound: an empty CSV cell and a JSON null
LANE_GOLDENS = {
    f"{stem}_{mode}_{spec}.{fmt}": _lane_run(command, spec, mode, fmt)
    for command, stem, spec, modes in (
        ("verify-maximal", "maximal", "p06_walk", ("exact", "mc", "both")),
        ("survival", "survival", "p06_walk", ("exact", "mc")),
        ("survival", "survival", "moving_average", ("both",)),
    )
    for mode in modes
    for fmt in ("csv", "json")
}
GOLDEN_COMMANDS.update(LANE_GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs_are_stable(name, tmp_path, capsys):
    target = tmp_path / name
    code, _, _ = run(GOLDEN_COMMANDS[name] + ["--out", str(target)], capsys)
    assert code == 0
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name",
    [
        "identity_mc_p06.csv",
        "survival_p06.csv",
        "birkhoff_mixture.csv",
        "identity_both_p06.json",
        "maximal_both_two_point.json",
        "survival_both_p06.json",
        "birkhoff_markov.json",
        "birkhoff_dip_p06.json",
        *LANE_GOLDENS,
    ],
)
def test_golden_outputs_ignore_thread_count(name, tmp_path, capsys):
    target = tmp_path / name
    code, _, _ = run(GOLDEN_COMMANDS[name] + ["--threads", "3", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


# ---------------------------------------------------------------------------
# spec file round trips
# ---------------------------------------------------------------------------


def test_bundled_specs_round_trip(specs):
    for name in SPEC_NAMES:
        spec = specs[name]
        assert spec_from_jsonable(spec_to_jsonable(spec)) == spec


def test_format_spec_is_idempotent(specs):
    for name in SPEC_NAMES:
        text = format_spec(specs[name])
        assert text.endswith("\n")
        again = format_spec(parse_spec_text(text))
        assert again == text


def test_rationals_survive_the_round_trip():
    spec = parse_spec_text(
        json.dumps({"kind": "iid_discrete", "values": ["7/3", -1], "probs": ["1/3", "2/3"]})
    )
    assert spec.values == (F(7, 3), F(-1))
    payload = spec_to_jsonable(spec)
    assert payload["probs"] == ["1/3", "2/3"]


def test_nested_mixture_error_paths_point_into_components():
    payload = {
        "kind": "mixture",
        "components": [
            {"weight": "1/2", "process": {"kind": "iid_discrete", "values": [1], "probs": ["1"]}},
            {"weight": 0.5, "process": {"kind": "iid_discrete", "values": [1], "probs": ["1"]}},
        ],
    }
    with pytest.raises(InvalidSpec) as exc:
        spec_from_jsonable(payload)
    assert "components[1]" in str(exc.value)


def test_bundled_spec_files_parse(specs):
    assert set(specs) == set(SPEC_NAMES)
    for name in SPEC_NAMES:
        assert parse_spec_file(spec_path(name)) == specs[name]


# arguments past the float range and past Python's 4300-digit limit on
# turning integers into text; argparse still refuses longer ones
NINES = "9" * 4300
ASTRONOMICAL = {
    **{
        f"survival-{name}-{mode}-{tag}": [
            "survival", "--spec", str(spec_path(name)), "--mode", mode, "--horizon", str(horizon)
        ]
        for name in ("p06_walk", "markov_drift", "two_point", "two_point_chain", "gaussian_drift")
        for mode in ("exact", "mc", "both")
        for tag, horizon in (("minus-1e14", -(10**14)), ("minus-2^63", -(2**63)), ("1e400", 10**400))
    },
    **{
        name: [command, "--spec", str(spec_path("p06_walk")), *extra]
        for name, command, extra in (
            ("trajectories", "birkhoff", ["--n-max", NINES[1:], "--trials", "11"]),
            ("dip", "birkhoff", ["--n-max", NINES[1:], "--trials", "11", "--epsilon", "0.05"]),
            ("maximal", "verify-maximal", ["--horizon", NINES[1:], "--trials", "11"]),
            ("identity", "verify-identity", ["--horizon", NINES]),
            ("sample", "sample", ["--lo", "-" + NINES]),
            ("transport", "transport", ["--lo", "-" + NINES]),
        )
    },
}


@pytest.mark.parametrize("name", ASTRONOMICAL)
def test_astronomical_arguments_exit_2_with_one_message(name, capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(ASTRONOMICAL[name], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
    if "minus" in name:  # the walk's and the exact fold's message
        assert err == "error: n_max must be at least 1\n"
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# fuzz: small argument combinations, out-of-range values included
# ---------------------------------------------------------------------------

MC_COMMANDS = ("verify-identity", "verify-maximal", "survival", "birkhoff")
BAD_FLOATS = ("nan", "inf", "-inf", "-1", "0")


def pick(draw, valid, invalid):
    """One option value, drawn from the invalid ones about one time in five."""
    pool = invalid if draw(st.integers(0, 4)) == 0 else valid
    return str(draw(st.sampled_from(pool)))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("sample", "transport") + MC_COMMANDS))
    spec = str(draw(st.sampled_from([*map(spec_path, SPEC_NAMES), LONG_INTEGER])))
    argv = [command, "--spec", spec, "--seed", pick(draw, (0, 3), (-1, 2**64))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    if command in ("sample", "transport"):
        argv += ["--lo", pick(draw, (-6, -1, 0), (2,)), "--hi", pick(draw, (1, 5), (-1, 10**14))]
        argv += ["--trial", pick(draw, (0, 7, 2**64 - 1), (-1, 2**64))]
        if command == "transport":  # a zero tolerance is valid
            argv += ["--epsilon", pick(draw, ("0", "1e-9", "0.5", "1e300"), BAD_FLOATS[:4])]
        return argv
    argv += ["--trials", pick(draw, (2, 64), (-1, 0, 1, 10**15))]
    argv += ["--z", pick(draw, ("1e-300", "2.576", "1e300"), BAD_FLOATS)]
    if command == "birkhoff":
        argv += ["--n-max", pick(draw, (1, 70, 300), (-1, 0, 10**14))]
        argv += ["--min-n", pick(draw, (1, 64, 10**18), (-1, 0))]
        argv += ["--side", draw(st.sampled_from(("below", "above")))]
        if draw(st.booleans()):
            argv += ["--epsilon", pick(draw, ("1e-300", "0.05", "0.5", "1e300"), BAD_FLOATS)]
        return argv
    mode = draw(st.sampled_from(("exact", "mc", "both")))
    argv += ["--mode", mode, "--horizon", pick(draw, (1, 4, 6), (-3, 0, 10**14, -(10**14), 10**400))]
    return argv + ["--atom-cap", pick(draw, (50, 1 << 20), (-1, 0))]


def run_main(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusing an argument
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_fuzzed_arguments_end_in_an_exit_code_not_a_traceback(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if "json" in argv and code != 2:  # strict JSON: no NaN or Infinity
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    if argv[0] in MC_COMMANDS:
        assert run_main([*argv, "--threads", "2"]) == (code, out, err)


# ---------------------------------------------------------------------------
# one parser per process and per $MASSTRANSPORT_THREADS


class _Recorded(Exception):
    pass


def test_a_changed_threads_env_takes_effect_between_calls(monkeypatch):
    def record(*args, threads, **kwargs):
        raise _Recorded(threads)

    monkeypatch.setattr(verify_module, "mc_survival", record)
    argv = ["survival", "--spec", str(spec_path("p06_walk")), "--horizon", "4"]
    for raw, threads in (("3", 3), ("5", 5), (None, 1), ("3", 3), ("0", 1)):
        if raw is None:
            monkeypatch.delenv(THREADS_ENV, raising=False)
        else:
            monkeypatch.setenv(THREADS_ENV, raw)
        with pytest.raises(_Recorded) as e:
            main(argv)
        assert e.value.args == (threads,)


@pytest.mark.parametrize("command", ["sample", "survival"])
def test_malformed_threads_env_after_a_good_call_exits_2_naming_it(command, monkeypatch, capsys):
    argv = [command, "--spec", str(spec_path("two_point"))]
    if command == "survival":
        argv += ["--horizon", "4", "--trials", "100"]
    monkeypatch.setenv(THREADS_ENV, "2")
    assert run(argv, capsys)[0] == 0
    for raw in ("abc", "2.5", ""):
        monkeypatch.setenv(THREADS_ENV, raw)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert THREADS_ENV in err and repr(raw) in err
    monkeypatch.setenv(THREADS_ENV, "2")
    assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("command", [[], ["sample"], ["transport"], *([c] for c in MC_COMMANDS)])
def test_help_text_matches_a_fresh_parser(command, capsys):
    def help_text(parse):
        with pytest.raises(SystemExit) as e:
            parse([*command, "--help"])
        assert e.value.code == 0
        return capsys.readouterr().out

    assert run(["sample", "--spec", str(spec_path("two_point"))], capsys)[0] == 0
    text = help_text(main)  # from the parser the first call built
    assert text.startswith("usage: masstransport")
    assert text == help_text(build_parser().parse_args)
