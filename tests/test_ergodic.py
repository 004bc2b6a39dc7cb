"""Long-run averages: component targets, convergence, dip probabilities."""

from __future__ import annotations

from fractions import Fraction
import itertools
import tracemalloc

import numpy as np
import pytest

from masstransport import (
    IidDiscrete,
    InvalidSpec,
    MarkovChain,
    Mixture,
    estimate_dip_probability,
    make_process,
    trajectory_batch,
)

from masstransport import ergodic as ergodic_module
from masstransport import verify as verify_module
from masstransport.ergodic import average_grid, trajectory
from masstransport.processes import negate_spec

from conftest import SPEC_NAMES
from test_exact_oracle import THREE_STATE_CHAIN
from test_verify import NESTED_SPECS

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
    assert components[0][0] == 1
    assert components[0][1].exact_mean() == F(1, 2)
    assert process.mean() == 0.5


def test_mixture_component_table(corpus):
    process = corpus["mixture"]
    components = process.components()
    table = [(w, c.exact_mean()) for w, c in components]
    assert table == [(F(1, 2), F(1)), (F(1, 2), F(-2))]
    assert process.mean() == pytest.approx(-0.5)
    assert components[0][1].mean() == 1.0 and components[1][1].mean() == -2.0


def test_chain_mean_weights_payoffs_by_stationary_law():
    chain = make_process(
        MarkovChain(transitions=((F(0), F(1)), (F(1), F(0))), payoffs=(3, -1))
    )
    assert chain.components()[0][1].exact_mean() == F(1)


def test_moving_average_and_rotation_means(corpus):
    assert corpus["moving_average"].components()[0][1].exact_mean() == 0
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


EXTRA_KINDS = {"three_state_chain": THREE_STATE_CHAIN, **NESTED_SPECS}


@pytest.mark.parametrize("name", [*SPEC_NAMES, *EXTRA_KINDS])
def test_trajectory_is_its_batch_row_bit_for_bit(name, corpus):
    # 4096 is a power of two and 3000 is not, so both grid ends are covered
    process = make_process(EXTRA_KINDS[name]) if name in EXTRA_KINDS else corpus[name]
    for n_max in (4096, 3000):
        batch = trajectory_batch(process, n_max, 16, seed=9)
        for t, row in enumerate(batch.rows):
            assert trajectory(process, n_max, seed=9, trial=t) == row


@pytest.mark.parametrize("name", NESTED_SPECS)
def test_walked_trajectories_of_nested_mixtures_are_their_rows_bit_for_bit(name, monkeypatch):
    # 32 KiB tiles: two chunks of 32 trials, each walking tiles of 128
    # positions, so every component's columns cross about 24 tiles
    process = make_process(NESTED_SPECS[name])
    monkeypatch.setattr(verify_module, "TILE_BYTES", 32 << 10)
    batch = trajectory_batch(process, 3000, 64, seed=9, threads=2)
    assert len(set(batch.ids.tolist())) == len(process.components())  # every one walks
    for t, row in enumerate(batch.rows):
        assert trajectory(process, 3000, seed=9, trial=t) == row


def _replayed(grid, rows: np.ndarray, widths) -> np.ndarray:
    """``_SegmentSums`` of ``rows`` fed in tiles of the given widths, in
    turn, with the trials walked in reverse order."""
    out = np.empty((len(rows), len(grid)))
    order = np.arange(len(rows))[::-1].copy()
    sums = ergodic_module._SegmentSums(grid, out)
    lo = 0
    for width in itertools.cycle(widths):
        sums.feed(order, lo, np.asfortranarray(rows[order, lo : lo + width]))
        lo += width
        if lo >= rows.shape[1]:
            return out


def _awkward_rows(trials: int, n: int, seed: int) -> np.ndarray:
    """Rows of mostly random normals, with runs of -0.0, +0.0, NaN and
    +-inf, and magnitudes that make the order of a sum show."""
    rs = np.random.default_rng(seed)
    rows = rs.standard_normal((trials, n)) * 10.0 ** rs.integers(-8, 9, (trials, n))
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])
    kind = rs.random((trials, n))
    rows[kind < 0.3] = -0.0  # whole segments of -0.0 in some rows
    pick = (kind > 0.3) & (kind < 0.3 + 3e-4)
    rows[pick] = rs.choice(special, pick.sum())
    rows[: trials // 4] = np.where(rs.random((trials // 4, n)) < 0.9, -0.0, rows[: trials // 4])
    return rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_segment_replay_equals_reduceat_bit_for_bit():
    # the walked trajectories replay numpy's pairwise summation tree of
    # each segment across tiles; a numpy that changes its tree fails here
    # by name, before any golden.  Every segment length from 1 to 300, the
    # grids of several n_max, and tile widths that split leaves and groups
    # of 8 (a leaf holds up to 128 elements)
    lengths = tuple(itertools.accumulate(range(1, 301)))
    grids = [lengths] + [average_grid(n) for n in (1, 2, 7, 129, 1000, 16384)]
    for i, grid in enumerate(grids):
        rows = _awkward_rows(24, grid[-1], seed=i)
        starts = np.array((0,) + grid[:-1])
        want = np.add.reduceat(rows, starts, axis=1)
        assert np.isnan(want).any() and np.isinf(want).any() or grid[-1] < 1000
        assert (np.signbit(want) & (want == 0.0)).any() or grid[-1] < 7
        for widths in ((1,), (3, 5), (7, 64, 13), (127, 129), (300,), (4096,)):
            got = _replayed(grid, rows, widths)
            assert got.tobytes() == want.tobytes(), (grid[-1], widths)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_segment_replay_equals_reduceat_with_eleven_subtree_sums_held():
    # the last segment of average_grid(2**17) holds 11 subtree sums at
    # once, the grids above at most 8.  Every NaN here is the one inf - inf
    # makes, the only NaN a walk's increments and sums can hold: numpy's
    # build orders some of its adds the other way round from the replay,
    # which shows only where two different NaNs meet
    grid = average_grid(2**17)
    rows = _awkward_rows(8, grid[-1], seed=7)
    rows[np.isnan(rows)] = np.inf - np.inf
    want = np.add.reduceat(rows, np.array((0,) + grid[:-1]), axis=1)
    assert np.isnan(want).any() and (np.signbit(want) & (want == 0.0)).any()
    for widths in ((3, 5), (127, 129), (4096,)):
        assert _replayed(grid, rows, widths).tobytes() == want.tobytes(), widths


def test_trajectory_batch_memory_stays_flat_as_n_max_grows(corpus):
    # the rows are walked: no row is held whole, and the replay's per-trial
    # arrays grow with the depth of the summation tree, not with n_max
    peaks = []
    for n_max in (1 << 14, 1 << 20):
        tracemalloc.start()
        try:
            trajectory_batch(corpus["markov_drift"], n_max, 8, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


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
