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

from .errors import InvalidSpec, MassTransportError
from .processes import DEFAULT_ATOM_CAP, make_process, sample_window
from .specio import parse_spec_file
from . import ergodic, transport, verify

THREADS_ENV = "MASSTRANSPORT_THREADS"


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


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise MassTransportError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# subcommands
#
# Each takes (args, process) and returns (csv_header, csv_rows, json_payload,
# passed); main picks the format, writes it and turns passed into the exit
# code.


def cmd_sample(args, process):
    window = sample_window(process, args.lo, args.hi, args.seed, args.trial)
    rows = [
        [k, "" if k == window.lo else window.x(k), window.s(k)]
        for k in range(window.lo, window.hi + 1)
    ]
    payload = {
        "lo": window.lo,
        "hi": window.hi,
        "seed": args.seed,
        "trial": args.trial,
        "values": list(window.values),
        "sums": list(window.sums),
    }
    return ["index", "x", "s"], rows, payload, True


def cmd_transport(args, process):
    tol = args.epsilon
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidSpec(f"epsilon must be finite and non-negative, got {tol}")
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

    rows = [["record", n, m, window.s(m)] for n in senders for m in records[n]]
    for n in senders:
        rows += [["mass", n, m, v] for m, v in sorted(masses[n].items())]
        rows.append(["sent_total", n, "", totals[n]])
    ladder_payload: dict = {}
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
        rows += [["ladder", "", m, window.s(m)] for m in ladder]
        rows += [["received", m, 0, v] for m, v in received]
        rows.append(["received_total", "", 0, received_total])
        ladder_payload = {
            "ladder_epochs": list(ladder),
            "received": {str(m): v for m, v in received},
            "received_total": received_total,
        }

    payload = {
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
    return ["kind", "n", "m", "value"], rows, payload, not failures


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


def _identity_rows(mode: str, pairs, agree):
    """(CSV row, JSON object) per n of one mode's (lhs, rhs) pairs, the
    pair passing when ``agree(lhs, rhs)``.

    Exact sides are Fractions.  Monte Carlo sides are EstimateCIs: the CSV
    row shows their means and intervals, the JSON object nests them whole
    and adds running sums of the means.
    """
    cum_l = cum_r = 0
    for n, (lhs, rhs) in enumerate(pairs, 1):
        ok = agree(lhs, rhs)
        if isinstance(lhs, verify.EstimateCI):
            means = (lhs.mean, rhs.mean)
            cis = (lhs.ci_low, lhs.ci_high, rhs.ci_low, rhs.ci_high)
            lhs, rhs = dataclasses.asdict(lhs), dataclasses.asdict(rhs)
        else:
            means, cis = (lhs, rhs), ("",) * 4
        cum_l += means[0]
        cum_r += means[1]
        yield [n, *means, *cis, mode, ok], {
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
    rows: list[tuple[list, dict]] = []
    if args.mode in ("exact", "both"):
        pairs = verify.exact_identity(process, args.horizon, args.atom_cap)
        rows += _identity_rows("exact", pairs, operator.eq)
    if args.mode in ("mc", "both"):
        pairs = verify.mc_identity(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        rows += _identity_rows("mc", pairs, verify.ci_overlap)

    passed = all(obj["pass"] for _, obj in rows)
    payload = {
        "mode": args.mode,
        "horizon": args.horizon,
        "trials": args.trials,
        "seed": args.seed,
        "z": args.z,
        "rows": [obj for _, obj in rows],
        "all_passed": passed,
    }
    return _IDENTITY_HEADER, [row for row, _ in rows], payload, passed


_MAXIMAL_HEADER = ["mode", "n_max", "value", "std_error", "ci_low", "ci_high", "pass"]


def cmd_verify_maximal(args, process):
    rows: list[list] = []
    payload: dict = {"n_max": args.horizon, "mode": args.mode}
    all_passed = True
    exact_value = None

    if args.mode in ("exact", "both"):
        exact_value = verify.exact_maximal_ergodic(process, args.horizon, args.atom_cap)
        ok = exact_value <= 0
        all_passed &= ok
        rows.append(["exact", args.horizon, exact_value, "", "", "", ok])
        payload["exact"] = {"value": exact_value, "pass": ok}

    if args.mode in ("mc", "both"):
        est = verify.mc_maximal_ergodic(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        ok = verify.sign_pass(est)
        if exact_value is not None:
            ok = ok and verify.agreement_pass(est, float(exact_value))
        all_passed &= ok
        rows.append(["mc", args.horizon, est.mean, est.std_error, est.ci_low, est.ci_high, ok])
        payload["mc"] = {"estimate": dataclasses.asdict(est), "pass": ok}

    payload["all_passed"] = all_passed
    return _MAXIMAL_HEADER, rows, payload, all_passed


_SURVIVAL_HEADER = [
    "mode",
    "n_max",
    "estimate",
    "std_error",
    "ci_low",
    "ci_high",
    "truncation_bound",
    "pass",
]


def cmd_survival(args, process):
    bound = verify.survival_truncation_bound(process, args.horizon)
    rows: list[list] = []
    payload: dict = {"n_max": args.horizon, "mode": args.mode, "truncation_bound": bound}
    all_passed = True
    exact_value = None

    if args.mode in ("exact", "both"):
        exact_value = verify.exact_survival(process, args.horizon, args.atom_cap)
        rows.append(["exact", args.horizon, exact_value, "", "", "", bound, True])
        payload["exact"] = {"value": exact_value}

    if args.mode in ("mc", "both"):
        est = verify.mc_survival(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        ok = True if exact_value is None else verify.agreement_pass(est, float(exact_value))
        all_passed &= ok
        rows.append(
            ["mc", args.horizon, est.mean, est.std_error, est.ci_low, est.ci_high, bound, ok]
        )
        payload["mc"] = {"estimate": dataclasses.asdict(est), "pass": ok}

    payload["all_passed"] = all_passed
    return _SURVIVAL_HEADER, rows, payload, all_passed


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
        return header, [row], {**lead, "estimate": dataclasses.asdict(est)}, True

    report = ergodic.trajectory_batch(
        process, args.n_max, args.trials, args.seed, threads=args.threads
    )
    rows = [
        [r.trial, r.component, n, avg]
        for r in report.rows
        for n, avg in zip(report.grid, r.averages)
    ]
    payload = {
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
    return ["trial", "component", "n", "avg"], rows, payload, True


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
        default=_default_threads(),
        help=f"worker threads; results do not depend on this (default ${THREADS_ENV} or 1)",
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


@functools.lru_cache(maxsize=1)
def _parser(threads_env: str | None) -> argparse.ArgumentParser:
    # the tree's only input from outside is --threads' default; a malformed
    # value raises here, and lru_cache keeps no exception, so it raises again
    return build_parser()


def main(argv=None) -> int:
    """Run one command; returns its exit code (see the module docstring).

    Calls in one process share one parser, rebuilt only when
    $MASSTRANSPORT_THREADS changes, so in-process callers (tests,
    benchmarks, library users) pay the 2.5-3 ms of building it once.
    """
    try:
        args = _parser(os.environ.get(THREADS_ENV)).parse_args(argv)
        process = make_process(parse_spec_file(args.spec))
        if getattr(args, "mode", "mc") != "exact":  # a float lane: refuse sums that overflow
            if args.command in ("sample", "transport"):
                length, trials = args.hi - args.lo, 1
            else:
                length = args.n_max if args.command == "birkhoff" else args.horizon
                trials = args.trials
            verify.check_magnitude(process, length, trials)
        header, rows, payload, passed = args.fn(args, process)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # exact results may pass the default 4300 digits
        try:
            text = _csv_text(header, rows) if args.format == "csv" else _json_text(payload)
        finally:
            sys.set_int_max_str_digits(limit)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_out(args.out, text)
        return 0 if passed else 1
    except (MassTransportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
