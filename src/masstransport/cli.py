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
import io
import os
import sys
from fractions import Fraction

from .errors import MassTransportError
from .processes import DEFAULT_ATOM_CAP, make_process, sample_window
from .specio import parse_spec_file
from . import ergodic, transport, verify

THREADS_ENV = "MASSTRANSPORT_THREADS"


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
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

    return json.dumps(payload, indent=2, default=default) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise MassTransportError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None


def _load(args):
    return make_process(parse_spec_file(args.spec))


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    process = _load(args)
    window = sample_window(process, args.lo, args.hi, args.seed, args.trial)
    if args.format == "csv":
        rows = []
        for k in range(window.lo, window.hi + 1):
            rows.append([k, "" if k == window.lo else window.x(k), window.s(k)])
        text = _csv_text(["index", "x", "s"], rows)
    else:
        text = _json_text(
            {
                "lo": window.lo,
                "hi": window.hi,
                "seed": args.seed,
                "trial": args.trial,
                "values": list(window.values),
                "sums": list(window.sums),
            }
        )
    _emit(text, args.out)
    return 0


def cmd_transport(args) -> int:
    process = _load(args)
    window = sample_window(process, args.lo, args.hi, args.seed, args.trial)
    tol = args.epsilon
    failures: list[str] = []

    senders = list(range(window.lo, window.hi))
    records = {n: transport.records_after(window, n) for n in senders}
    masses = {n: transport.mass_row(window, n) for n in senders}
    totals = {n: transport.total_sent(window, n) for n in senders}
    for n in senders:
        row = masses[n]
        if not transport.close(float(row.total()), float(totals[n]), tol):
            failures.append(
                f"sender {n}: mass row sums to {row.total()}, closed form says {totals[n]}"
            )
        for m, v in row.entries.items():
            if float(v) < -tol:
                failures.append(f"sender {n}: negative mass {v} at {m}")

    ladder = None
    received = None
    if window.lo <= -1:
        ladder = transport.ladder_epochs_before_zero(window)
        received = transport.mass_received_at_zero(window)
        for m, v in received.items():
            direct = masses[m].get(0)
            if not transport.close(float(v), float(direct), tol):
                failures.append(
                    f"received mass from {m}: ladder form {v}, sender form {direct}"
                )
        direct_total = sum(float(masses[m].get(0)) for m in senders if m < 0)
        ladder_total = sum(float(v) for v in received.values())
        if not transport.close(ladder_total, direct_total, tol):
            failures.append(
                f"received total: ladder form {ladder_total}, sender form {direct_total}"
            )

    if args.format == "csv":
        rows = []
        for n in senders:
            for m in records[n].records:
                rows.append(["record", n, m, window.s(m)])
        for n in senders:
            for m in sorted(masses[n].entries):
                rows.append(["mass", n, m, masses[n].entries[m]])
            rows.append(["sent_total", n, "", totals[n]])
        if ladder is not None:
            for m in ladder.epochs:
                rows.append(["ladder", "", m, window.s(m)])
            for m in sorted(received, reverse=True):
                rows.append(["received", m, 0, received[m]])
            rows.append(["received_total", "", 0, sum(received.values(), 0)])
        text = _csv_text(["kind", "n", "m", "value"], rows)
    else:
        payload = {
            "window": {"lo": window.lo, "hi": window.hi, "values": list(window.values)},
            "records": {str(n): list(records[n].records) for n in senders},
            "masses": {
                str(n): {str(m): v for m, v in sorted(masses[n].entries.items())}
                for n in senders
            },
            "sent_totals": {str(n): totals[n] for n in senders},
            "passed": not failures,
        }
        if ladder is not None:
            payload["ladder_epochs"] = list(ladder.epochs)
            payload["received"] = {str(m): v for m, v in sorted(received.items(), reverse=True)}
            payload["received_total"] = sum(received.values(), 0)
        text = _json_text(payload)
    _emit(text, args.out)
    for f in failures:
        print(f"consistency check failed: {f}", file=sys.stderr)
    return 1 if failures else 0


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


def cmd_verify_identity(args) -> int:
    process = _load(args)
    csv_rows: list[list] = []
    json_rows: list[dict] = []
    all_passed = True

    if args.mode in ("exact", "both"):
        cum_l, cum_r = Fraction(0), Fraction(0)
        for n in range(1, args.horizon + 1):
            lhs, rhs = verify.exact_identity(process, n, args.atom_cap)
            ok = lhs == rhs
            all_passed &= ok
            cum_l += lhs
            cum_r += rhs
            csv_rows.append([n, lhs, rhs, "", "", "", "", "exact", ok])
            json_rows.append(
                {
                    "n": n,
                    "mode": "exact",
                    "lhs": lhs,
                    "rhs": rhs,
                    "cumulative_lhs": cum_l,
                    "cumulative_rhs": cum_r,
                    "pass": ok,
                }
            )

    if args.mode in ("mc", "both"):
        report = verify.mc_identity(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        cum_lf, cum_rf = 0.0, 0.0
        for term in report.terms:
            ok = term.passed
            all_passed &= ok
            cum_lf += term.lhs.mean
            cum_rf += term.rhs.mean
            csv_rows.append(
                [
                    term.n,
                    term.lhs.mean,
                    term.rhs.mean,
                    term.lhs.ci_low,
                    term.lhs.ci_high,
                    term.rhs.ci_low,
                    term.rhs.ci_high,
                    "mc",
                    ok,
                ]
            )
            json_rows.append(
                {
                    "n": term.n,
                    "mode": "mc",
                    "lhs": dataclasses.asdict(term.lhs),
                    "rhs": dataclasses.asdict(term.rhs),
                    "cumulative_lhs": cum_lf,
                    "cumulative_rhs": cum_rf,
                    "pass": ok,
                }
            )

    if args.format == "csv":
        text = _csv_text(_IDENTITY_HEADER, csv_rows)
    else:
        text = _json_text(
            {
                "mode": args.mode,
                "horizon": args.horizon,
                "trials": args.trials,
                "seed": args.seed,
                "z": args.z,
                "rows": json_rows,
                "all_passed": all_passed,
            }
        )
    _emit(text, args.out)
    return 0 if all_passed else 1


_MAXIMAL_HEADER = ["mode", "n_max", "value", "std_error", "ci_low", "ci_high", "pass"]


def cmd_verify_maximal(args) -> int:
    process = _load(args)
    csv_rows: list[list] = []
    payload: dict = {"n_max": args.horizon, "mode": args.mode}
    all_passed = True
    exact_value = None

    if args.mode in ("exact", "both"):
        exact_value = verify.exact_maximal_ergodic(process, args.horizon, args.atom_cap)
        ok = exact_value <= 0
        all_passed &= ok
        csv_rows.append(["exact", args.horizon, exact_value, "", "", "", ok])
        payload["exact"] = {"value": exact_value, "pass": ok}

    if args.mode in ("mc", "both"):
        est = verify.mc_maximal_ergodic(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        ok = verify.sign_pass(est)
        if exact_value is not None:
            ok = ok and verify.agreement_pass(est, float(exact_value))
        all_passed &= ok
        csv_rows.append(["mc", args.horizon, est.mean, est.std_error, est.ci_low, est.ci_high, ok])
        payload["mc"] = {"estimate": dataclasses.asdict(est), "pass": ok}

    payload["all_passed"] = all_passed
    text = _csv_text(_MAXIMAL_HEADER, csv_rows) if args.format == "csv" else _json_text(payload)
    _emit(text, args.out)
    return 0 if all_passed else 1


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


def cmd_survival(args) -> int:
    process = _load(args)
    bound = verify.survival_truncation_bound(process, args.horizon)
    csv_rows: list[list] = []
    payload: dict = {"n_max": args.horizon, "mode": args.mode, "truncation_bound": bound}
    all_passed = True
    exact_value = None

    if args.mode in ("exact", "both"):
        exact_value = verify.exact_survival(process, args.horizon, args.atom_cap)
        csv_rows.append(["exact", args.horizon, exact_value, "", "", "", bound, True])
        payload["exact"] = {"value": exact_value}

    if args.mode in ("mc", "both"):
        est = verify.mc_survival(
            process, args.horizon, args.trials, args.seed, z=args.z, threads=args.threads
        )
        ok = True if exact_value is None else verify.agreement_pass(est, float(exact_value))
        all_passed &= ok
        csv_rows.append(
            ["mc", args.horizon, est.mean, est.std_error, est.ci_low, est.ci_high, bound, ok]
        )
        payload["mc"] = {"estimate": dataclasses.asdict(est), "pass": ok}

    payload["all_passed"] = all_passed
    text = _csv_text(_SURVIVAL_HEADER, csv_rows) if args.format == "csv" else _json_text(payload)
    _emit(text, args.out)
    return 0 if all_passed else 1


def cmd_birkhoff(args) -> int:
    process = _load(args)
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
        if args.format == "csv":
            header = [
                "epsilon",
                "n_max",
                "window_start",
                "side",
                "estimate",
                "std_error",
                "ci_low",
                "ci_high",
                "trials",
            ]
            rows = [
                [
                    report.epsilon,
                    report.n_max,
                    report.window_start,
                    report.side,
                    est.mean,
                    est.std_error,
                    est.ci_low,
                    est.ci_high,
                    est.trials,
                ]
            ]
            text = _csv_text(header, rows)
        else:
            text = _json_text(
                {
                    "epsilon": report.epsilon,
                    "n_max": report.n_max,
                    "window_start": report.window_start,
                    "side": report.side,
                    "estimate": dataclasses.asdict(est),
                }
            )
        _emit(text, args.out)
        return 0

    report = ergodic.trajectory_batch(
        process, args.n_max, args.trials, args.seed, threads=args.threads
    )
    if args.format == "csv":
        rows = []
        for r in report.rows:
            for n, avg in zip(report.grid, r.averages):
                rows.append([r.trial, r.component, n, avg])
        text = _csv_text(["trial", "component", "n", "avg"], rows)
    else:
        text = _json_text(
            {
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
        )
    _emit(text, args.out)
    return 0


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
        help="exact enumeration, Monte Carlo, or both (default mc)",
    )
    p.add_argument(
        "--atom-cap",
        type=int,
        default=DEFAULT_ATOM_CAP,
        help="abort exact enumeration beyond this many paths",
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (MassTransportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
