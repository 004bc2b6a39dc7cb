"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Each test times its own work, prints exactly one ``criterion N: PASS/FAIL``
line to the live terminal, and then asserts.  The checks are:

1. the exact transport identity on the two-point walk and its chain twin;
2. receiver-route vs sender-route equivalence on a random window corpus;
3. pathwise telescoping of mass rows on the same corpus;
4. the maximal inequality, exact at N = 8 and Monte Carlo at N = 16;
5. gambler survival against the classical limit with the truncation bound;
6. long-run averages against component means, plus the dip probability;
7. byte-identical command output across thread counts.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from masstransport import (
    PathWindow,
    exact_identity,
    exact_maximal_ergodic,
    exact_window_distribution,
    estimate_dip_probability,
    first_nonpositive,
    mass_received_at_zero,
    mass_row,
    mc_maximal_ergodic,
    mc_survival,
    survival_truncation_bound,
    total_sent,
    trajectory_batch,
)
from masstransport.cli import main

from conftest import ERGODIC_NAMES, EXACT_NAMES, SPEC_NAMES, spec_path

F = Fraction
SEED = 20260814
TOL = 1e-9


def verdict(capsys, line: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"{line}: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# shared random-window corpus for criteria 2 and 3
# ---------------------------------------------------------------------------


def window_corpus(process, total, seed):
    """``total`` windows of length 2..12 with varying left edges."""
    combos = [(length, lo) for length in range(2, 13) for lo in range(-(length - 1), 0)]
    base, rem = divmod(total, len(combos))
    start = 0
    for i, (length, lo) in enumerate(combos):
        count = base + (1 if i < rem else 0)
        if count == 0:
            continue
        trials = np.arange(start, start + count, dtype=np.uint64)
        block = process.sample_block(seed, trials, lo, lo + length)
        start += count
        for row in block:
            yield PathWindow.from_values(lo, [float(v) for v in row])


def exact_corpus(process):
    dist = exact_window_distribution(process, -3, 2)
    return [w for w, _ in dist.atoms]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_exact_identity(corpus, capsys):
    t0 = time.perf_counter()
    ok = True
    for name in ("two_point", "two_point_chain"):
        for n, (lhs, rhs) in enumerate(exact_identity(corpus[name], 8), 1):
            ok &= lhs == rhs
            if n == 2:
                ok &= lhs == F(1, 4)
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    verdict(capsys, f"criterion 1 (exact identity, n <= 8, both twins, {dt:.1f}s)", ok)
    assert ok


def test_criteria_2_and_3_window_corpus(corpus, capsys):
    t0 = time.perf_counter()
    equiv_ok = True
    telescope_ok = True
    windows = 0

    for name in SPEC_NAMES:
        for w in window_corpus(corpus[name], 10_000, SEED + 2):
            windows += 1
            received = mass_received_at_zero(w)
            for m in range(w.lo, 0):
                if abs(received.get(m, 0.0) - mass_row(w, m).get(0, 0)) > TOL:
                    equiv_ok = False
            for n in range(w.lo, w.hi):
                if abs(sum(mass_row(w, n).values(), 0) - total_sent(w, n)) > TOL:
                    telescope_ok = False
            if w.x(1) > 0 and first_nonpositive(w) is not None:
                if abs(total_sent(w, 0) - w.x(1)) > TOL:
                    telescope_ok = False

    for name in EXACT_NAMES:
        for w in exact_corpus(corpus[name]):
            received = mass_received_at_zero(w)
            for m in range(w.lo, 0):
                if received.get(m, 0) != mass_row(w, m).get(0, 0):
                    equiv_ok = False
            for n in range(w.lo, w.hi):
                if sum(mass_row(w, n).values(), 0) != total_sent(w, n):
                    telescope_ok = False
            if w.x(1) > 0 and first_nonpositive(w) is not None:
                if total_sent(w, 0) != w.x(1):
                    telescope_ok = False

    dt = time.perf_counter() - t0
    equiv_ok &= dt < 10.0
    verdict(
        capsys,
        f"criterion 2 (receiver = sender route, {windows} windows x all processes"
        f" + exact lane, {dt:.1f}s)",
        equiv_ok,
    )
    verdict(capsys, f"criterion 3 (telescoping and ruin payout, same corpus)", telescope_ok)
    assert equiv_ok
    assert telescope_ok


def test_criterion_4_maximal_inequality(corpus, capsys):
    t0 = time.perf_counter()
    ok = True
    for name in EXACT_NAMES:
        ok &= exact_maximal_ergodic(corpus[name], 8) <= 0
    details = []
    for name in ("gaussian_drift", "rotation"):
        est = mc_maximal_ergodic(corpus[name], 16, 100_000, SEED + 4)
        ok &= est.mean <= 3.0 * est.std_error
        details.append(f"{name} {est.mean:.4f} (se {est.std_error:.4f})")
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    verdict(
        capsys,
        f"criterion 4 (maximal inequality exact N=8 + mc N=16: {'; '.join(details)}, {dt:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_5_survival(corpus, capsys):
    t0 = time.perf_counter()
    est = mc_survival(corpus["p06_walk"], 2048, 100_000, SEED + 5)
    bound = survival_truncation_bound(corpus["p06_walk"], 2048)
    # The probe stops at N = 2048, so its target is 0.2 plus a bias in
    # [0, bound]; the estimate must sit within 3 standard errors of that
    # band.
    gap = est.mean - 0.2
    ok = bound is not None and -3.0 * est.std_error <= gap <= 3.0 * est.std_error + bound

    drift = mc_survival(corpus["markov_drift"], 2048, 100_000, SEED + 5)
    ok &= drift.mean - 3.0 * drift.std_error > 0.0

    dt = time.perf_counter() - t0
    verdict(
        capsys,
        f"criterion 5 (survival: walk {est.mean:.4f} vs 0.2, se {est.std_error:.4f}, "
        f"truncation bias <= {bound:.2e}; chain {drift.mean:.4f} > 0, {dt:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_6_birkhoff(corpus, capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for name in ERGODIC_NAMES:
        report = trajectory_batch(corpus[name], 1 << 14, 10_000, SEED + 6)
        frac = report.gap_fraction(0.05)
        worst = max(worst, frac)
        ok &= frac <= 0.02
    t_mix = time.perf_counter()

    mix = trajectory_batch(corpus["mixture"], 1 << 14, 10_000, SEED + 6)
    exact_mix = all(
        a == row.target for row in mix.rows for a in row.averages
    )
    ok &= exact_mix
    t_dips = time.perf_counter()

    dips = []
    for name in ("p06_walk", "rotation", "gaussian_drift"):
        report = estimate_dip_probability(corpus[name], 0.1, 1 << 14, 10_000, SEED + 6)
        dips.append(report.estimate.mean)
        ok &= report.estimate.mean <= 0.01

    t_end = time.perf_counter()
    dt = t_end - t0
    ok &= dt < 60.0
    verdict(
        capsys,
        f"criterion 6 (averages at n=2^14: worst gap fraction {worst:.4f} <= 0.02, "
        f"mixture exact {exact_mix}, dip estimates {[f'{d:.4f}' for d in dips]}, {dt:.1f}s: "
        f"trajectories {t_mix - t0:.1f}s, mixture {t_dips - t_mix:.1f}s, "
        f"dips {t_end - t_dips:.1f}s)",
        ok,
    )
    assert ok


THREADED_COMMANDS = {
    "identity": [
        "verify-identity",
        "--spec",
        str(spec_path("p06_walk")),
        "--mode",
        "mc",
        "--horizon",
        "8",
        "--trials",
        "20000",
        "--seed",
        "17",
    ],
    "survival": [
        "survival",
        "--spec",
        str(spec_path("gaussian_drift")),
        "--horizon",
        "256",
        "--trials",
        "20000",
        "--seed",
        "17",
    ],
    "maximal": [
        "verify-maximal",
        "--spec",
        str(spec_path("rotation")),
        "--horizon",
        "64",
        "--trials",
        "20000",
        "--seed",
        "17",
    ],
    "trajectories": [
        "birkhoff",
        "--spec",
        str(spec_path("moving_average")),
        "--n-max",
        "1024",
        "--trials",
        "400",
        "--seed",
        "17",
    ],
    "dip": [
        "birkhoff",
        "--spec",
        str(spec_path("markov_drift")),
        "--n-max",
        "512",
        "--trials",
        "2000",
        "--epsilon",
        "0.2",
        "--seed",
        "17",
    ],
}


def test_criterion_7_thread_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    for label, args in THREADED_COMMANDS.items():
        outputs = []
        for threads in (1, 2, 7):
            out = tmp_path / f"{label}_{threads}.csv"
            code = main(args + ["--threads", str(threads), "--out", str(out)])
            ok &= code == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
    dt = time.perf_counter() - t0
    verdict(
        capsys,
        f"criterion 7 (byte-identical CSV across --threads 1/2/7, "
        f"{len(THREADED_COMMANDS)} commands, {dt:.1f}s)",
        ok,
    )
    assert ok
