"""Identity, maximal inequality and survival estimators against frozen values.

Every exact expected value here was computed by hand or by direct
enumeration over the window law before being frozen into the assertions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from masstransport import (
    EstimateCI,
    IidDiscrete,
    InvalidSpec,
    agreement_pass,
    ci_overlap,
    exact_identity,
    exact_maximal_ergodic,
    exact_survival,
    make_process,
    mc_identity,
    mc_maximal_ergodic,
    mc_survival,
    sign_pass,
    survival_truncation_bound,
)

from masstransport import verify as verify_module

from conftest import EXACT_NAMES

F = Fraction


def constant_process(value):
    return make_process(IidDiscrete(values=(value,), probs=(F(1),)))


# ---------------------------------------------------------------------------
# exact identity
# ---------------------------------------------------------------------------


def test_identity_frozen_values_two_point(corpus):
    # Hand enumeration for X in {+2, -1} fair: M(0, 1) is always 0 and
    # M(0, 2) = 1 exactly on the up-down path of probability 1/4.
    assert exact_identity(corpus["two_point"], 1)[-1] == (F(0), F(0))
    assert exact_identity(corpus["two_point"], 2)[-1] == (F(1, 4), F(1, 4))


def test_identity_frozen_values_chain_twin(corpus):
    assert exact_identity(corpus["two_point_chain"], 2)[-1] == (F(1, 4), F(1, 4))


def test_identity_holds_for_every_exact_process(corpus):
    for name in EXACT_NAMES:
        for n in range(1, 6):
            lhs, rhs = exact_identity(corpus[name], n)[-1]
            assert lhs == rhs, f"{name} n={n}: {lhs} != {rhs}"


def test_identity_rejects_bad_horizon(corpus):
    with pytest.raises(InvalidSpec):
        exact_identity(corpus["two_point"], 0)


def test_mc_identity_matches_exact_values(corpus):
    report = mc_identity(corpus["two_point"], 4, 20_000, seed=3)
    assert report.all_passed
    truth = {n: float(exact_identity(corpus["two_point"], n)[-1][0]) for n in range(1, 5)}
    for term in report.terms:
        assert agreement_pass(term.lhs, truth[term.n])
        assert agreement_pass(term.rhs, truth[term.n])


def test_mc_identity_sides_are_independent(corpus):
    report = mc_identity(corpus["p06_walk"], 3, 5_000, seed=1)
    for term in report.terms:
        if term.lhs.std_error > 0:
            assert term.lhs.mean != term.rhs.mean


def test_mc_identity_is_thread_invariant(corpus):
    a = mc_identity(corpus["gaussian_drift"], 5, 6_000, seed=7, threads=1)
    b = mc_identity(corpus["gaussian_drift"], 5, 6_000, seed=7, threads=4)
    for ta, tb in zip(a.terms, b.terms):
        assert ta == tb


# ---------------------------------------------------------------------------
# maximal inequality
# ---------------------------------------------------------------------------


def test_maximal_frozen_value_two_point(corpus):
    # E[X_1; min(S_1, S_2) <= 0] = -1/2: only the paths starting with -1
    # qualify at horizon 2 (then S_1 = -1 <= 0), each contributing -1.
    assert exact_maximal_ergodic(corpus["two_point"], 2) == F(-1, 2)


def test_maximal_constant_processes():
    assert exact_maximal_ergodic(constant_process(1), 5) == 0
    assert exact_maximal_ergodic(constant_process(-1), 1) == -1


def test_maximal_is_nondecreasing_yet_never_positive(corpus):
    # Extending the horizon only adds paths that start upward, so the
    # value rises with n, but the inequality pins it at or below zero
    # for every horizon separately.
    values = [exact_maximal_ergodic(corpus["p06_walk"], n) for n in range(1, 9)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= 0 for v in values)
    assert values[0] == F(-2, 5)


def test_maximal_nonpositive_for_exact_corpus(corpus):
    for name in EXACT_NAMES:
        for n in (6, 64):
            assert exact_maximal_ergodic(corpus[name], n) <= 0, (name, n)


def test_mc_maximal_matches_exact(corpus):
    exact = float(exact_maximal_ergodic(corpus["two_point"], 4))
    est = mc_maximal_ergodic(corpus["two_point"], 4, 40_000, seed=11)
    assert agreement_pass(est, exact)
    assert sign_pass(est)


def test_mc_maximal_zero_variance_cases():
    up = mc_maximal_ergodic(constant_process(1), 3, 100, seed=0)
    assert up.mean == 0.0 and up.std_error == 0.0
    assert sign_pass(up)
    down = mc_maximal_ergodic(constant_process(-1), 3, 100, seed=0)
    assert down.mean == -1.0 and down.std_error == 0.0


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


def test_survival_frozen_values(corpus):
    assert exact_survival(corpus["two_point"], 2) == F(1, 2)
    assert exact_survival(corpus["p06_walk"], 1) == F(3, 5)
    assert exact_survival(corpus["p06_walk"], 3) == F(9, 25)


def test_survival_is_nonincreasing_and_bounded(corpus):
    values = [exact_survival(corpus["p06_walk"], n) for n in range(1, 9)]
    assert all(1 >= a >= b >= 0 for a, b in zip(values, values[1:]))
    # the infinite-horizon limit for the 0.6/0.4 walk is exactly 1/5
    assert all(v >= F(1, 5) for v in values)


def test_survival_constant_processes():
    assert exact_survival(constant_process(1), 6) == 1
    assert exact_survival(constant_process(-1), 1) == 0
    assert mc_survival(constant_process(1), 6, 50, seed=0).mean == 1.0
    assert mc_survival(constant_process(-1), 6, 50, seed=0).mean == 0.0


def test_mc_survival_matches_exact(corpus):
    exact = float(exact_survival(corpus["p06_walk"], 8))
    est = mc_survival(corpus["p06_walk"], 8, 40_000, seed=5)
    assert agreement_pass(est, exact)


def test_mc_survival_thread_invariance(corpus):
    a = mc_survival(corpus["markov_drift"], 64, 4_000, seed=2, threads=1)
    b = mc_survival(corpus["markov_drift"], 64, 4_000, seed=2, threads=3)
    assert a == b


# ---------------------------------------------------------------------------
# truncation bound
# ---------------------------------------------------------------------------


def test_truncation_bound_dominates_exact_bias(corpus):
    # The bias of stopping the survival probe at N is the chance of a
    # first ruin after N; the printed geometric bound must sit above it.
    limit = F(1, 5)
    for n in (4, 8, 12, 256, 1024):
        bias = exact_survival(corpus["p06_walk"], n) - limit
        bound = survival_truncation_bound(corpus["p06_walk"], n)
        assert bias >= 0
        assert bound is not None and float(bias) <= bound <= 1.0


def test_truncation_bound_is_tiny_at_large_horizons(corpus):
    bound = survival_truncation_bound(corpus["p06_walk"], 2048)
    assert bound is not None and 0.0 < bound < 1e-10
    chain_bound = survival_truncation_bound(corpus["markov_drift"], 2048)
    assert chain_bound is not None and 0.0 < chain_bound < 1e-50
    gauss_bound = survival_truncation_bound(corpus["gaussian_drift"], 2048)
    assert gauss_bound is not None and 0.0 < gauss_bound < 1.0


def test_truncation_bound_vanishes_for_positive_walks():
    assert survival_truncation_bound(constant_process(1), 16) == 0.0


def test_truncation_bound_unavailable_without_positive_drift(corpus):
    fair = make_process(IidDiscrete(values=(1, -1), probs=(F(1, 2), F(1, 2))))
    assert survival_truncation_bound(fair, 16) is None
    assert survival_truncation_bound(corpus["moving_average"], 16) is None
    assert survival_truncation_bound(corpus["rotation"], 16) is None


def test_truncation_bound_clips_at_one_when_uninformative(corpus):
    # Positive drift gives a valid geometric bound, but at tiny horizons
    # the constant pushes it past 1 and the probability cap takes over.
    assert survival_truncation_bound(corpus["two_point"], 1) == 1.0


# ---------------------------------------------------------------------------
# estimator plumbing
# ---------------------------------------------------------------------------


def test_estimate_ci_from_samples():
    est = EstimateCI.from_samples(np.array([0.0, 1.0, 0.0, 1.0]), z=2.0)
    assert est.mean == 0.5
    assert est.trials == 4
    assert est.ci_low == pytest.approx(0.5 - 2.0 * est.std_error)
    assert est.ci_high == pytest.approx(0.5 + 2.0 * est.std_error)
    assert est.covers(0.5)


def test_ci_overlap_is_symmetric():
    a = EstimateCI.from_samples(np.array([0.0, 1.0, 1.0, 0.0]), z=2.0)
    b = EstimateCI.from_samples(np.array([10.0, 11.0, 10.5, 10.2]), z=2.0)
    assert not ci_overlap(a, b) and not ci_overlap(b, a)
    assert ci_overlap(a, a)


def test_agreement_pass_handles_zero_variance():
    est = EstimateCI.from_samples(np.array([2.0, 2.0, 2.0]))
    assert agreement_pass(est, 2.0)
    assert not agreement_pass(est, 2.5)


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


def test_mc_results_do_not_depend_on_the_tile_size(corpus, monkeypatch):
    # A chunk holds as many whole trials as fit one tile.  Every draw is
    # keyed by (trial, position) and every per-trial value is reduced
    # along its own row, so the tile size must not change a single bit.
    # For a window of width 300, 64 KiB gives chunks of 27 trials, 1 MiB
    # chunks of 436, and 128 MiB one chunk of all the trials.
    results = []
    for tile in (64 << 10, 1 << 20, 128 << 20):
        monkeypatch.setattr(verify_module, "TILE_BYTES", tile)
        results.append(
            [
                mc_identity(corpus["moving_average"], 150, 3_000, seed=4, threads=2).terms,
                mc_maximal_ergodic(corpus["rotation"], 300, 3_000, seed=4),
                mc_survival(corpus["markov_drift"], 300, 3_000, seed=4),
                mc_survival(corpus["gaussian_drift"], 300, 3_000, seed=4, threads=2),
            ]
        )
    assert results[0] == results[1] == results[2]


# ---------------------------------------------------------------------------
# thread pool
# ---------------------------------------------------------------------------


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_exceeds_the_cpu_count(corpus, monkeypatch):
    # no thread starts here: the recording pool runs every chunk inline
    monkeypatch.setattr(verify_module, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 3)
    chunks = verify_module._chunk_arrays(20_000, 1)
    assert len(chunks) == 5
    expected = mc_survival(corpus["p06_walk"], 1, 20_000, seed=2)
    for threads in (2, 3, 1 << 20):
        lengths = verify_module._run_chunks(20_000, threads, len)
        assert lengths == [len(c) for c in chunks]
        assert mc_survival(corpus["p06_walk"], 1, 20_000, seed=2, threads=threads) == expected
    assert _RecordingPool.sizes == [2, 2, 3, 3, 3, 3]
