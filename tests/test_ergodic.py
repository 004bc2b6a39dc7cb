"""Long-run averages: component targets, convergence, dip probabilities."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from masstransport import (
    IidDiscrete,
    InvalidSpec,
    MarkovChain,
    Mixture,
    average_grid,
    estimate_dip_probability,
    make_process,
    negate_spec,
    trajectory,
    trajectory_batch,
)

from masstransport import verify as verify_module

from conftest import SPEC_NAMES

F = Fraction


def constant_process(value):
    return make_process(IidDiscrete(values=(value,), probs=(F(1),)))


# ---------------------------------------------------------------------------
# conditional means
# ---------------------------------------------------------------------------


def test_single_component_mean(corpus):
    process = corpus["two_point"]
    components = process.components()
    assert len(components) == 1
    assert components[0].weight == 1
    assert components[0].exact_mean == F(1, 2)
    assert process.mean() == 0.5


def test_mixture_component_table(corpus):
    process = corpus["mixture"]
    components = process.components()
    table = [(c.weight, c.exact_mean) for c in components]
    assert table == [(F(1, 2), F(1)), (F(1, 2), F(-2))]
    assert process.mean() == pytest.approx(-0.5)
    assert components[0].mean == 1.0 and components[1].mean == -2.0


def test_chain_mean_weights_payoffs_by_stationary_law():
    chain = make_process(
        MarkovChain(transitions=((F(0), F(1)), (F(1), F(0))), payoffs=(3, -1))
    )
    assert chain.components()[0].exact_mean == F(1)


def test_moving_average_and_rotation_means(corpus):
    assert corpus["moving_average"].components()[0].exact_mean == 0
    assert corpus["rotation"].mean() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# grids and trajectories
# ---------------------------------------------------------------------------


def test_average_grid_shapes():
    assert average_grid(1) == (1,)
    assert average_grid(8) == (1, 2, 4, 8)
    assert average_grid(10) == (1, 2, 4, 8, 10)
    with pytest.raises(InvalidSpec):
        average_grid(0)


def test_constant_process_averages_are_exact():
    row = trajectory(constant_process(1), 64, seed=0)
    assert row.target == 1.0
    assert all(a == 1.0 for a in row.averages)
    assert row.final_gap == 0.0


def test_alternating_chain_averages_shrink_like_one_over_n():
    # Payoffs +1/-1 on the two-cycle: S_n is 0 or +-1, so |S_n / n| <= 1/n.
    chain = make_process(
        MarkovChain(transitions=((F(0), F(1)), (F(1), F(0))), payoffs=(1, -1))
    )
    report = trajectory_batch(chain, 256, 32, seed=4)
    for row in report.rows:
        for n, avg in zip(report.grid, row.averages):
            assert abs(avg) <= 1.0 / n + 1e-12


def test_trajectory_matches_batch_row(corpus):
    batch = trajectory_batch(corpus["p06_walk"], 128, 8, seed=9)
    single = trajectory(corpus["p06_walk"], 128, seed=9, trial=5)
    assert batch.rows[5].averages == pytest.approx(single.averages)
    assert batch.rows[5].component == single.component


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_trajectory_is_its_batch_row_bit_for_bit(name, corpus):
    # 4096 is a power of two and 3000 is not, so both grid ends are covered
    for n_max in (4096, 3000):
        batch = trajectory_batch(corpus[name], n_max, 16, seed=9)
        for t, row in enumerate(batch.rows):
            assert trajectory(corpus[name], n_max, seed=9, trial=t) == row


def test_mixture_trajectories_sit_exactly_on_component_means(corpus):
    report = trajectory_batch(corpus["mixture"], 512, 64, seed=2)
    seen = set()
    for row in report.rows:
        assert row.final_gap == 0.0
        assert all(a == row.target for a in row.averages)
        seen.add(row.component)
    assert seen == {0, 1}
    assert report.gap_fraction(0.05) == 0.0


def test_gap_fraction_counts_misses():
    report = trajectory_batch(constant_process(2), 16, 10, seed=0)
    assert report.gap_fraction(0.0) == 0.0


def test_trajectory_batch_thread_invariance(corpus):
    a = trajectory_batch(corpus["markov_drift"], 256, 100, seed=3, threads=1)
    b = trajectory_batch(corpus["markov_drift"], 256, 100, seed=3, threads=4)
    assert a == b


# ---------------------------------------------------------------------------
# dip probabilities
# ---------------------------------------------------------------------------


def test_dip_needs_positive_epsilon(corpus):
    with pytest.raises(InvalidSpec):
        estimate_dip_probability(corpus["p06_walk"], 0.0, 1024, 100, seed=0)
    with pytest.raises(InvalidSpec):
        estimate_dip_probability(corpus["p06_walk"], 0.1, 1024, 100, seed=0, side="left")


def test_dip_window_scales_with_horizon(corpus):
    report = estimate_dip_probability(corpus["p06_walk"], 0.5, 1024, 10, seed=0)
    assert report.window_start == 512
    report = estimate_dip_probability(corpus["p06_walk"], 0.5, 100, 10, seed=0)
    assert report.window_start == 64


def test_dip_probability_is_zero_for_constant_process():
    report = estimate_dip_probability(constant_process(1), 0.1, 256, 200, seed=1)
    assert report.estimate.mean == 0.0


def test_dip_probability_small_at_moderate_horizon(corpus):
    report = estimate_dip_probability(corpus["p06_walk"], 0.1, 4096, 2000, seed=6)
    assert report.estimate.mean <= 0.01


def test_dip_probability_large_for_tight_margin(corpus):
    # With epsilon far inside the typical fluctuation band the dip
    # happens more often than not, which pins the event orientation:
    # a mixed-up comparison would leave the estimate near zero.
    report = estimate_dip_probability(corpus["gaussian_drift"], 0.001, 128, 300, seed=7)
    assert report.estimate.mean > 0.5


def test_dip_sides_are_exact_mirrors_under_negation(specs):
    # Negation flips every sample pathwise for non-Gaussian kinds, and
    # IEEE negation is exact, so the indicator of dipping below -eps on
    # the negated process equals dipping above +eps on the original,
    # trial by trial.
    for name in ("p06_walk", "markov_drift", "moving_average"):
        proc = make_process(specs[name])
        anti = make_process(negate_spec(specs[name]))
        above = estimate_dip_probability(proc, 0.05, 512, 400, seed=8, side="above")
        below = estimate_dip_probability(anti, 0.05, 512, 400, seed=8, side="below")
        assert above.estimate.mean == below.estimate.mean


def test_dip_estimate_thread_invariance(corpus):
    a = estimate_dip_probability(corpus["rotation"], 0.05, 512, 600, seed=3, threads=1)
    b = estimate_dip_probability(corpus["rotation"], 0.05, 512, 600, seed=3, threads=5)
    assert a == b


def test_trajectories_and_dips_do_not_depend_on_the_tile_size(corpus, monkeypatch):
    # See the tiling test of the verify lanes: for n_max = 1000, 64 KiB
    # gives chunks of 8 trials, 1 MiB chunks of 131, and 128 MiB one
    # chunk of all the trials.
    results = []
    for tile in (64 << 10, 1 << 20, 128 << 20):
        monkeypatch.setattr(verify_module, "TILE_BYTES", tile)
        results.append(
            [
                trajectory_batch(corpus["gaussian_drift"], 1000, 300, seed=5),
                trajectory_batch(corpus["mixture"], 1000, 300, seed=5, threads=2),
                trajectory_batch(corpus["two_point_chain"], 1000, 300, seed=5),
                estimate_dip_probability(corpus["moving_average"], 0.02, 1000, 300, seed=5),
                estimate_dip_probability(
                    corpus["p06_walk"], 0.02, 1000, 300, seed=5, side="above", threads=2
                ),
            ]
        )
    # both dip events happen on some trials and not on others
    for dip in results[0][3:]:
        assert 0.0 < dip.estimate.mean < 1.0
    assert results[0] == results[1] == results[2]
