"""Command line front end.

Subcommands:

* ``sample``           dump one simulated window
* ``transport``        records, ladder epochs and masses of one window,
                       with internal consistency gates
* ``verify-identity``  both sides of E[M(0,n)] = E[M(-n,0)]
* ``verify-maximal``   the maximal ergodic quantity E[X_1; some S_n <= 0]
* ``survival``         P(no ruin by the horizon), with truncation bound
* ``birkhoff``         running averages S_n/n, or the probability that
                       the average still strays epsilon from its target

Exit codes: 0 on success with all checks passing, 1 when a verification
check fails, 2 on usage, spec or capability errors.

Output is CSV (default) or JSON, to stdout or --out.  For a fixed spec,
seed and trial count the bytes are identical whatever --threads says.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import operator
import os
import stat
import sys
import uuid
from fractions import Fraction

import numpy as np

from .errors import InvalidSpec, MassTransportError
from .processes import DEFAULT_ATOM_CAP, make_process, sample_window
from .scratch import check_memory
from .specio import parse_spec_file
from . import ergodic, transport, verify


def _fmt(x) -> str:
    if isinstance(x, float):  # numpy's float64 too
        if math.isfinite(x):
            return str(x)
        # as in _json_text: float sums of the spec's values overflowed
        raise MassTransportError(f"the result holds NaN or infinity ({x}), not a CSV number")
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(c) for c in row])
    return buf.getvalue()


def _json_text(payload) -> str:
    import json

    def default(x):
        if isinstance(x, Fraction):
            return str(x)
        raise TypeError(f"not JSON serializable: {type(x).__name__}")

    try:
        return json.dumps(payload, indent=2, default=default, allow_nan=False) + "\n"
    except ValueError as e:  # NaN or infinity: float sums of the spec's values overflowed
        raise MassTransportError(f"the result holds NaN or infinity, not valid JSON ({e})") from e


def _write_out(path: str, text: str) -> None:
    """Write text to path.

    A new file, or a regular file with one link that this user owns, is
    written to a temporary file beside it that is then renamed over it,
    so a failed write leaves the old file whole and no partial one; an
    old file's mode carries over.  Anything else (a symlink, a device, a
    FIFO, a file with other links or another owner) is written in place,
    as is a file whose directory takes no new files.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is None or (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    ):
        tmp = os.path.join(os.path.dirname(path) or ".", f".masstransport-{uuid.uuid4().hex}")
        try:
            # 0o666 less the umask, as open(path, "w") would give a new file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass  # a directory that takes no new files: write in place
        else:
            try:
                with os.fdopen(fd, "w") as f:
                    if st is not None:
                        os.fchmod(f.fileno(), stat.S_IMODE(st.st_mode))
                    f.write(text)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            return
    with open(path, "w") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# subcommands
#
# Each takes (args, process), computes its result once and returns (passed,
# csv, json): csv() gives the CSV text and json() the JSON payload, so only
# the format asked for is built.  main calls one, writes it and turns passed
# into the exit code.


def _table(header: list[str], rows):
    """csv() of a table whose rows ``rows()`` builds."""
    return lambda: _csv_text(header, rows())


# the window's values and sums as Python floats, a row per index and the
# text: the peak memory of `sample` grew by 260-285 bytes per increment
# (CSV and JSON alike)
_SAMPLE_ENTRY_BYTES = 288


def cmd_sample(args, process):
    n = args.hi - args.lo
    check_memory(1, 0, n * _SAMPLE_ENTRY_BYTES // 8, f"window [{args.lo}, {args.hi}]")
    window = sample_window(process, args.lo, args.hi, args.seed, args.trial)

    def rows():
        return [
            [k, "" if k == window.lo else window.x(k), window.s(k)]
            for k in range(window.lo, window.hi + 1)
        ]

    def payload():
        return {
            "lo": window.lo,
            "hi": window.hi,
            "seed": args.seed,
            "trial": args.trial,
            "values": list(window.values),
            "sums": list(window.sums),
        }

    return True, _table(["index", "x", "s"], rows), payload


# on a falling walk every later site is a record of every sender, and the
# peak memory of `transport` grew by about 186 bytes per record, its mass
# and output rows included (CSV; JSON took about 130)
_TRANSPORT_ENTRY_BYTES = 192


def cmd_transport(args, process):
    tol = args.epsilon
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidSpec(f"epsilon must be finite and non-negative, got {tol}")
    # sender lo + k has at most n - k records after it
    n = args.hi - args.lo
    entries = n * (n + 1) // 2
    check_memory(1, 0, entries * _TRANSPORT_ENTRY_BYTES // 8, f"window [{args.lo}, {args.hi}]")
    window = sample_window(process, args.lo, args.hi, args.seed, args.trial)
    failures: list[str] = []

    senders = list(range(window.lo, window.hi))
    records = {n: transport.records_after(window, n) for n in senders}
    masses = {n: transport.mass_row(window, n) for n in senders}
    totals = {n: transport.total_sent(window, n) for n in senders}
    for n in senders:
        row = masses[n]
        row_total = sum(row.values(), 0)
        if not transport.close(float(row_total), float(totals[n]), tol):
            failures.append(
                f"sender {n}: mass row sums to {row_total}, closed form says {totals[n]}"
            )
        for m, v in row.items():
            if float(v) < -tol:
                failures.append(f"sender {n}: negative mass {v} at {m}")

    ladder = received = None
    if window.lo <= -1:
        ladder = transport.ladder_epochs_before_zero(window)
        received = transport.mass_received_at_zero(window)
        for m, v in received.items():
            direct = masses[m].get(0, 0)
            if not transport.close(float(v), float(direct), tol):
                failures.append(
                    f"received mass from {m}: ladder form {v}, sender form {direct}"
                )
        direct_total = sum(float(masses[m].get(0, 0)) for m in senders if m < 0)
        ladder_total = sum(float(v) for v in received.values())
        if not transport.close(ladder_total, direct_total, tol):
            failures.append(
                f"received total: ladder form {ladder_total}, sender form {direct_total}"
            )
        received_total = sum(received.values(), 0)
        received = sorted(received.items(), reverse=True)

    def rows():
        out = [["record", n, m, window.s(m)] for n in senders for m in records[n]]
        for n in senders:
            out += [["mass", n, m, v] for m, v in sorted(masses[n].items())]
            out.append(["sent_total", n, "", totals[n]])
        if ladder is not None:
            out += [["ladder", "", m, window.s(m)] for m in ladder]
            out += [["received", m, 0, v] for m, v in received]
            out.append(["received_total", "", 0, received_total])
        return out

    def payload():
        ladder_payload = {}
        if ladder is not None:
            ladder_payload = {
                "ladder_epochs": list(ladder),
                "received": {str(m): v for m, v in received},
                "received_total": received_total,
            }
        return {
            "window": {"lo": window.lo, "hi": window.hi, "values": list(window.values)},
            "records": {str(n): list(records[n]) for n in senders},
            "masses": {
                str(n): {str(m): v for m, v in sorted(masses[n].items())} for n in senders
            },
            "sent_totals": {str(n): totals[n] for n in senders},
            "passed": not failures,
            **ladder_payload,
        }

    for f in failures:
        print(f"consistency check failed: {f}", file=sys.stderr)
    return not failures, _table(["kind", "n", "m", "value"], rows), payload


_IDENTITY_HEADER = [
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


def _identity_checks(mode: str, pairs, agree) -> list[tuple]:
    """(n, mode, lhs, rhs, passed) for each n of one mode's (lhs, rhs)
    pairs, the pair passing when ``agree(lhs, rhs)``."""
    return [(n, mode, lhs, rhs, agree(lhs, rhs)) for n, (lhs, rhs) in enumerate(pairs, 1)]


def _identity_rows(checks: list[tuple]):
    """CSV rows of ``_identity_checks``: exact sides are Fractions, Monte
    Carlo sides EstimateCIs shown by their means and intervals."""
    for n, mode, lhs, rhs, ok in checks:
        if isinstance(lhs, verify.EstimateCI):
            cis = (lhs.ci_low, lhs.ci_high, rhs.ci_low, rhs.ci_high)
            yield [n, lhs.mean, rhs.mean, *cis, mode, ok]
        else:
            yield [n, lhs, rhs, "", "", "", "", mode, ok]


def _identity_objects(checks: list[tuple]):
    """JSON objects of ``_identity_checks``: EstimateCIs nest whole, and
    each mode adds running sums of its means."""
    cumulative: dict = {}
    for n, mode, lhs, rhs, ok in checks:
        mc = isinstance(lhs, verify.EstimateCI)
        cum_l, cum_r = cumulative.get(mode, (0, 0))
        if mc:
            cum_l, cum_r = cum_l + lhs.mean, cum_r + rhs.mean
            lhs, rhs = dataclasses.asdict(lhs), dataclasses.asdict(rhs)
        else:
            cum_l, cum_r = cum_l + lhs, cum_r + rhs
        cumulative[mode] = cum_l, cum_r
        yield {
            "n": n,
            "mode": mode,
            "lhs": lhs,
            "rhs": rhs,
            "cumulative_lhs": cum_l,
            "cumulative_rhs": cum_r,
            "pass": ok,
        }


def cmd_verify_identity(args, process):
    verify.check_z(args.z)  # the payload echoes it even where exact mode uses none
    checks: list[tuple] = []
    if args.mode in ("exact", "both"):
        pairs = verify.exact_identity(process, args.horizon, args.atom_cap)
        checks += _identity_checks("exact", pairs, operator.eq)
    if args.mode in ("mc", "both"):
        pairs = verify.mc_identity(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        checks += _identity_checks("mc", pairs, verify.ci_overlap)
    passed = all(check[-1] for check in checks)

    def payload():
        return {
            "mode": args.mode,
            "horizon": args.horizon,
            "trials": args.trials,
            "seed": args.seed,
            "z": args.z,
            "rows": list(_identity_objects(checks)),
            "all_passed": passed,
        }

    return passed, _table(_IDENTITY_HEADER, lambda: _identity_rows(checks)), payload


def _lanes(args, process, exact, mc, column: str, sign=None, verdict=None, **extra):
    """(passed, csv, json) of a one-value check in the lanes ``args.mode``
    runs, the exact one first.

    ``exact(process, horizon, atom_cap)`` gives a Fraction that passes
    ``verdict``, or always without one (its JSON object then has no
    ``pass``).  ``mc(process, horizon, trials, seed, z=, threads=)`` gives
    an EstimateCI that passes ``sign``, where given, and agrees with the
    exact value where that lane ran.  The run passes when every lane run
    does.  ``extra`` holds values computed before either lane, each a
    column before ``pass`` in the CSV and a key after ``mode`` in the JSON;
    ``column`` names the value's.
    """
    lanes = []  # (mode, CSV cells, JSON object, pass) of each lane run
    value = None
    if args.mode in ("exact", "both"):
        value = exact(process, args.horizon, args.atom_cap)
        ok = verdict is None or verdict(value)
        obj = {"value": value} if verdict is None else {"value": value, "pass": ok}
        lanes.append(("exact", [value, "", "", ""], obj, ok))
    if args.mode in ("mc", "both"):
        est = mc(process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads)
        ok = (sign is None or sign(est)) and (
            value is None or verify.agreement_pass(est, float(value))
        )
        cells = [est.mean, est.std_error, est.ci_low, est.ci_high]
        lanes.append(("mc", cells, {"estimate": dataclasses.asdict(est), "pass": ok}, ok))
    passed = all(lane[-1] for lane in lanes)
    header = ["mode", "n_max", column, "std_error", "ci_low", "ci_high", *extra, "pass"]
    rows = [[mode, args.horizon, *cells, *extra.values(), ok] for mode, cells, _, ok in lanes]
    payload = {
        "n_max": args.horizon,
        "mode": args.mode,
        **extra,
        **{mode: obj for mode, _, obj, _ in lanes},
        "all_passed": passed,
    }
    return passed, _table(header, lambda: rows), lambda: payload


def cmd_verify_maximal(args, process):
    return _lanes(
        args, process, verify.exact_maximal_ergodic, verify.mc_maximal_ergodic, "value",
        sign=verify.sign_pass, verdict=lambda value: value <= 0,
    )


def cmd_survival(args, process):
    return _lanes(
        args, process, verify.exact_survival, verify.mc_survival, "estimate",
        truncation_bound=verify.survival_truncation_bound(process, args.horizon),
    )


def cmd_birkhoff(args, process):
    if args.epsilon is not None:
        report = ergodic.estimate_dip_probability(
            process,
            args.epsilon,
            args.n_max,
            args.trials,
            args.seed,
            side=args.side,
            min_start=args.min_n,
            z=args.z,
            threads=args.threads,
        )
        est = report.estimate
        lead = {
            "epsilon": report.epsilon,
            "n_max": report.n_max,
            "window_start": report.window_start,
            "side": report.side,
        }
        header = [*lead, "estimate", "std_error", "ci_low", "ci_high", "trials"]
        row = [*lead.values(), est.mean, est.std_error, est.ci_low, est.ci_high, est.trials]
        payload = {**lead, "estimate": dataclasses.asdict(est)}
        return True, _table(header, lambda: [row]), lambda: payload

    report = ergodic.trajectory_batch(
        process, args.n_max, args.trials, args.seed, threads=args.threads
    )

    def payload():
        return {
            "n_max": report.n_max,
            "grid": list(report.grid),
            "trials": len(report.rows),
            "rows": [
                {
                    "trial": r.trial,
                    "component": r.component,
                    "target": r.target,
                    "averages": list(r.averages),
                    "final_gap": r.final_gap,
                }
                for r in report.rows
            ],
        }

    return True, lambda: _trajectory_csv(report), payload


def _trajectory_csv(report: ergodic.TrajectoryReport) -> str:
    """The ``trial,component,n,avg`` table of a batch, the bytes
    ``_csv_text`` writes for it, formatted straight from its arrays: every
    cell is a number, which csv.writer leaves unquoted, and a float's
    ``repr`` is its ``str``."""
    averages = report.averages
    bad = np.flatnonzero(~np.isfinite(averages))
    if len(bad):
        _fmt(averages.flat[bad[0]].item())  # raises, naming the first in row order
    cells = [f",{n}," for n in report.grid]
    values = iter(averages.ravel().tolist())
    lines = ["trial,component,n,avg\n"]
    for t, component in enumerate(report.ids.tolist()):
        lead = f"{t},{component}"
        lines += [f"{lead}{cell}{value!r}\n" for cell, value in zip(cells, values)]
    return "".join(lines)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to a JSON process description")
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_mc(p: argparse.ArgumentParser, default_trials: int) -> None:
    p.add_argument(
        "--trials", type=int, default=default_trials, help=f"Monte Carlo trials (default {default_trials})"
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads; results do not depend on this (default 1)",
    )
    p.add_argument("--z", type=float, default=verify.Z_DEFAULT, help="CI half-width in standard errors")


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lo", type=int, default=-4, help="window start, <= 0 (default -4)")
    p.add_argument("--hi", type=int, default=4, help="window end, >= 0 (default 4)")
    p.add_argument("--trial", type=int, default=0, help="trial index (default 0)")


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=("exact", "mc", "both"),
        default="mc",
        help="exact rational computation, Monte Carlo, or both (default mc)",
    )
    p.add_argument(
        "--atom-cap",
        type=int,
        default=DEFAULT_ATOM_CAP,
        help="refuse an exact run once its step laws' branches plus the states its "
        f"folds carry, summed over the steps, pass this many (default {DEFAULT_ATOM_CAP})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masstransport",
        description="records, ladder epochs and mass transport on stationary walks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump one simulated window")
    _add_common(p)
    _add_window(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("transport", help="records, ladders and masses of one window")
    _add_common(p)
    _add_window(p)
    p.add_argument(
        "--epsilon",
        type=float,
        default=transport.DEFAULT_TOLERANCE,
        help="tolerance for the float consistency gates",
    )
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("verify-identity", help="check E[M(0,n)] = E[M(-n,0)] for n <= horizon")
    _add_common(p)
    _add_mc(p, default_trials=100_000)
    _add_mode(p)
    p.add_argument("--horizon", type=int, default=8, help="largest n to check (default 8)")
    p.set_defaults(fn=cmd_verify_identity)

    p = sub.add_parser("verify-maximal", help="check E[X_1; some S_n <= 0] <= 0")
    _add_common(p)
    _add_mc(p, default_trials=100_000)
    _add_mode(p)
    p.add_argument("--horizon", type=int, default=64, help="ruin horizon n_max (default 64)")
    p.set_defaults(fn=cmd_verify_maximal)

    p = sub.add_parser("survival", help="estimate P(S_n > 0 for all n <= horizon)")
    _add_common(p)
    _add_mc(p, default_trials=100_000)
    _add_mode(p)
    p.add_argument("--horizon", type=int, default=1024, help="ruin horizon n_max (default 1024)")
    p.set_defaults(fn=cmd_survival)

    p = sub.add_parser("birkhoff", help="running averages S_n/n, or dip probabilities")
    _add_common(p)
    _add_mc(p, default_trials=1000)
    p.add_argument("--n-max", type=int, default=4096, help="largest n (default 4096)")
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="estimate the dip probability at this margin instead of dumping averages",
    )
    p.add_argument("--side", choices=("below", "above"), default="below")
    p.add_argument(
        "--min-n",
        type=int,
        default=ergodic.MIN_WINDOW_START,
        help="never start the dip window before this n",
    )
    p.set_defaults(fn=cmd_birkhoff)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; returns its exit code (see the module docstring).

    Calls in one process share one parser, so in-process callers (tests,
    benchmarks, library users) pay for building its tree of subcommands
    once.
    """
    limit = sys.get_int_max_str_digits()
    try:
        args = _parser().parse_args(argv)
        process = make_process(parse_spec_file(args.spec))
        # exact results, and the counts a refusal names, may pass the
        # default 4300 digits; argparse and the spec file keep the limit
        sys.set_int_max_str_digits(0)
        if getattr(args, "mode", "mc") != "exact":  # a float lane: refuse sums that overflow
            if args.command in ("sample", "transport"):
                length, trials = args.hi - args.lo, 1
            else:
                length = args.n_max if args.command == "birkhoff" else args.horizon
                trials = args.trials
            verify.check_magnitude(process, length, trials)
        passed, csv_text, payload = args.fn(args, process)
        text = csv_text() if args.format == "csv" else _json_text(payload())
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_out(args.out, text)
        return 0 if passed else 1
    except (MassTransportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    sys.exit(main())
