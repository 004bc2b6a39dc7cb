"""Command line surface: exit codes, schemas, golden outputs, spec round trips."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from masstransport import (
    InvalidSpec,
    format_spec,
    parse_spec_file,
    parse_spec_text,
    spec_from_jsonable,
    spec_to_jsonable,
)
from masstransport.cli import THREADS_ENV, build_parser, main

from conftest import SPEC_NAMES, spec_path

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
