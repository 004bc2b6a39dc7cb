"""Identity, maximal inequality and survival estimators against frozen values.

Every exact expected value here was computed by hand or by direct
enumeration over the window law before being frozen into the assertions.
"""

from __future__ import annotations

from fractions import Fraction
import math
import tracemalloc

import numpy as np
import pytest

from masstransport import (
    EstimateCI,
    IidDiscrete,
    InvalidSpec,
    estimate_dip_probability,
    exact_identity,
    exact_maximal_ergodic,
    exact_survival,
    make_process,
    mc_identity,
    mc_maximal_ergodic,
    mc_survival,
    trajectory_batch,
)

from masstransport import rng as rng_module
from masstransport import scratch as scratch_module
from masstransport import verify as verify_module
from masstransport.processes import MarkovChain, MarkovProcess, Mixture, MovingAverage, Rotation
from masstransport.scratch import FRESH, Scratch, order_of, scan
from masstransport.transport import received_mass_terms, sent_mass_terms
from masstransport.verify import agreement_pass, ci_overlap, sign_pass, survival_truncation_bound

from conftest import EXACT_NAMES, SPEC_NAMES
from test_exact_oracle import EXTRA_SPECS, THREE_STATE_CHAIN
from test_layout import LONG_TABLE

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
    pairs = mc_identity(corpus["two_point"], 4, 20_000, seed=3)
    assert all(ci_overlap(lhs, rhs) for lhs, rhs in pairs)
    truth = {n: float(exact_identity(corpus["two_point"], n)[-1][0]) for n in range(1, 5)}
    for n, (lhs, rhs) in enumerate(pairs, 1):
        assert agreement_pass(lhs, truth[n])
        assert agreement_pass(rhs, truth[n])


def test_mc_identity_sides_are_independent(corpus):
    for lhs, rhs in mc_identity(corpus["p06_walk"], 3, 5_000, seed=1):
        if lhs.std_error > 0:
            assert lhs.mean != rhs.mean


def test_mc_identity_is_thread_invariant(corpus):
    a = mc_identity(corpus["gaussian_drift"], 5, 6_000, seed=7, threads=1)
    b = mc_identity(corpus["gaussian_drift"], 5, 6_000, seed=7, threads=4)
    for ta, tb in zip(a, b):
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
# the walk: tiles of positions with a carried running sum
# ---------------------------------------------------------------------------


def _one_pass(process, n_max, trials, seed, threads=1):
    """(survival, maximal) from whole rows of every trial: the step that
    sampled and scanned all n_max increments before the prefix screen and
    the walk."""

    def step(survival):
        def run(chunk, tile):
            block = process.sample_block(seed, chunk, 0, n_max, tile)
            first = block[:, 0].copy()
            low = scan(np.add, block, block).min(axis=1)
            return low > 0.0 if survival else first * (low <= 0.0)

        return verify_module._estimate(run, trials, threads, n_max, 2.576, "horizon")

    return step(True), step(False)


@pytest.fixture(scope="module")
def screened_kinds(corpus):
    extra = ("three_state_chain", "ma_zero_innovation", "mixture_with_chain")
    return {**corpus, **{name: make_process(EXTRA_SPECS[name]) for name in extra}}


def test_a_prefix_is_the_first_columns_of_its_row(screened_kinds):
    # the screen's prefix and its whole rows both start at lo = 0, chains
    # too, whatever order each tile takes
    layouts = set()
    for name, proc in screened_kinds.items():
        for count in (3, 20, 100):
            trials = np.arange(7, 7 + 5 * count, 5, dtype=np.uint64)
            for w, n in ((1, 2), (1, 9), (5, 7), (8, 64), (30, 40)):
                row = proc.sample_block(4, trials, 0, n)
                prefix = proc.sample_block(4, trials, 0, w, Scratch().tile())
                layouts.add((order_of(prefix), order_of(row)))
                want = np.ascontiguousarray(row[:, :w]).tobytes()
                assert np.ascontiguousarray(prefix).tobytes() == want, (name, count, w, n)
    assert {("C", "C"), ("F", "C"), ("F", "F")} <= layouts


@pytest.mark.parametrize(
    "name", ["p06_walk", "markov_drift", "moving_average", "rotation", "mixture_with_chain"]
)
def test_screened_survival_and_maximal_equal_whole_rows(screened_kinds, monkeypatch, name):
    proc = screened_kinds[name]
    tile_trials = verify_module._chunk_size
    for n_max in (1, 2, 7, 8, 9, 64, 2048):
        if name == "mixture_with_chain" and n_max > 64:
            continue  # a chain of three states steps in Python along long rows
        want = _one_pass(proc, n_max, 400, seed=6)
        for chunk in (4096, 3):
            # at most `chunk` trials in a tile of prefixes or of whole rows
            monkeypatch.setattr(
                verify_module, "_chunk_size", lambda width, cap=chunk: min(cap, tile_trials(width))
            )
            for threads in (1, 2):
                got = (
                    mc_survival(proc, n_max, 400, seed=6, threads=threads),
                    mc_maximal_ergodic(proc, n_max, 400, seed=6, threads=threads),
                )
                assert got == want, (n_max, chunk, threads)


# two innovations of 1e308 in a row make an increment of +inf, two of
# -1e308 one of -inf: 1 in 64 each
OVERFLOWING = MovingAverage(
    coefficients=(1, 1),
    innovation=IidDiscrete(values=(1e308, -1e308, 1, -2), probs=(F(1, 8), F(1, 8), F(3, 8), F(3, 8))),
)

FAIR_SIGN = IidDiscrete(values=(1, -1), probs=(F(1, 2), F(1, 2)))
SQUARE_ROTATION = Rotation(pieces=((0, 1), (0.5, -1)))
# mixtures whose components carry float columns of their own across a walk's
# tiles: a rotation's phase and a moving average's innovations, then the
# same one level down, then a chain, a rotation and a moving average beside
# each other at two levels
ROTATION_OR_MA = Mixture(
    components=(
        (F(1, 2), SQUARE_ROTATION),
        (F(1, 2), MovingAverage(coefficients=(F(1, 2), F(1, 4), F(1, 4)), innovation=FAIR_SIGN)),
    )
)
NESTED_MIXTURE = Mixture(
    components=(
        (
            F(1, 3),
            Mixture(
                components=(
                    (F(1, 2), IidDiscrete(values=(1, -1), probs=(F(3, 4), F(1, 4)))),
                    (F(1, 2), SQUARE_ROTATION),
                )
            ),
        ),
        (F(2, 3), MovingAverage(coefficients=(1, F(1, 2)), innovation=FAIR_SIGN)),
    )
)
FOUR_WAY_MIXTURE = Mixture(
    components=(
        (F(1, 4), Mixture(components=((F(1, 2), THREE_STATE_CHAIN), (F(1, 2), SQUARE_ROTATION)))),
        (F(1, 4), MovingAverage(coefficients=(F(1, 2), F(1, 4), F(1, 4)), innovation=FAIR_SIGN)),
        (
            F(1, 4),
            MarkovChain(transitions=((F(3, 4), F(1, 4)), (F(1, 3), F(2, 3))), payoffs=(1, -1)),
        ),
        (F(1, 4), IidDiscrete(values=(2, -1), probs=(F(1, 3), F(2, 3)))),
    )
)
NESTED_SPECS = {
    "rotation_or_ma": ROTATION_OR_MA,
    "nested_mixture": NESTED_MIXTURE,
    "four_way_mixture": FOUR_WAY_MIXTURE,
}


def _recording(proc, monkeypatch) -> list:
    """The (lo, hi, trials) of every ``sample_block`` call on ``proc`` from
    now on."""
    calls = []
    sample = proc.sample_block

    def recording(seed, chunk, lo, hi, scratch=FRESH, state=None):
        calls.append((lo, hi, chunk.copy()))
        return sample(seed, chunk, lo, hi, scratch, state)

    monkeypatch.setattr(proc, "sample_block", recording)
    return calls


def _by_rows(process, n_max, trials, seed, epsilon, min_start):
    """Survival, maximal and both dip sides from whole rows of every trial,
    one block and one cumsum, as the estimators computed them before the
    walk."""
    idx = np.arange(trials, dtype=np.uint64)
    block = process.sample_block(seed, idx, 0, n_max)
    sums = np.cumsum(block, axis=1)
    low = sums.min(axis=1)
    start = max(min_start, n_max // 2)
    means = np.array([c.mean() for _, c in process.components()])
    target = means[process.component_ids(seed, idx)][:, None]
    steps = np.arange(start, n_max + 1, dtype=np.float64)
    ratios = sums[:, start - 1 :] - target * steps
    ratios /= steps
    values = (
        low > 0.0,
        block[:, 0] * (low <= 0.0),
        ratios.min(axis=1) < -epsilon,
        ratios.max(axis=1) > epsilon,
    )
    return [EstimateCI.from_samples(v.astype(np.float64)) for v in values]


@pytest.fixture(scope="module")
def walked_kinds(screened_kinds):
    return {
        **screened_kinds,
        "long_table": make_process(LONG_TABLE),
        "overflowing": make_process(OVERFLOWING),
        **{name: make_process(spec) for name, spec in NESTED_SPECS.items()},
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name",
    [
        "gaussian_drift", "markov_drift", "mixture", "moving_average", "p06_walk", "rotation",
        "two_point", "two_point_chain", "three_state_chain", "mixture_with_chain", "long_table",
        "overflowing", "rotation_or_ma", "nested_mixture", "four_way_mixture",
    ],
)
def test_the_walk_equals_whole_rows(walked_kinds, monkeypatch, name):
    # tiles of 256 increments: chunks of 64 trials walk 4 positions at a
    # time, and wider as trials drop out, so each chunk takes dozens of
    # tiles (75 for a dip, which drops no trial)
    proc, n_max, trials, epsilon, min_start = walked_kinds[name], 300, 600, 0.01, 8
    survival, maximal, below, above = _by_rows(proc, n_max, trials, 4, epsilon, min_start)
    monkeypatch.setattr(verify_module, "TILE_BYTES", 2048)
    calls = _recording(proc, monkeypatch)
    for threads in (1, 2, 3):
        assert mc_survival(proc, n_max, trials, seed=4, threads=threads) == survival
        # a row ruined and later summed to NaN keeps its ruin in the walk
        # (test_a_ruin_in_any_tile_stays_a_ruin_when_later_sums_turn_nan);
        # only the overflowing spec has such rows
        if name != "overflowing":
            assert mc_maximal_ergodic(proc, n_max, trials, seed=4, threads=threads) == maximal
        for side, want in (("below", below), ("above", above)):
            dip = estimate_dip_probability(
                proc, epsilon, n_max, trials, seed=4, side=side, min_start=min_start,
                threads=threads,
            )
            assert dip.estimate == want, (side, threads)
    assert len({(lo, hi) for lo, hi, _ in calls}) >= 24
    # the estimates read more than one kind of trial, but where the
    # averages sit on their targets (the mixture's constant components)
    # or every trial is ruined by n_max (the rotation, and the overflowing
    # moving average, whose finite increments drift down)
    assert 0.0 < below.mean < 1.0 or 0.0 < above.mean < 1.0 or name == "mixture"
    assert 0.0 < survival.mean < 1.0 or name in ("rotation", "overflowing")


@pytest.mark.parametrize(
    "name", ["markov_drift", "two_point_chain", "three_state_chain", "mixture_with_chain"]
)
def test_a_chain_carries_its_state_across_tiles(screened_kinds, name):
    proc = screened_kinds[name]
    chain = proc if isinstance(proc, MarkovProcess) else proc.children[0]
    payoffs = [float(v) for v in chain.spec.payoffs]
    assert len(set(payoffs)) == len(payoffs)  # a value names its state
    trials = np.arange(7, 847, 7, dtype=np.uint64)
    state, order = proc.walk_state(2, trials, Scratch())
    if order is not None:  # the state's rows follow the walk's order
        trials = trials[order]
    # the chain's column and the rows that follow it: a mixture keeps its
    # pick in column 0 and hands child 0, the chain, column 1
    column = 0 if chain is proc else 1
    chained = np.ones(len(trials), bool) if chain is proc else state[:, 0] == 0
    assert 0 < chained.sum() and state.shape == (len(trials), proc.walk_width)
    whole = proc.sample_block(2, trials, 0, 64)
    tile = Scratch()
    for lo, hi in zip((0, 1, 2, 5, 13, 14, 40), (1, 2, 5, 13, 14, 40, 64)):
        block = proc.sample_block(2, trials, lo, hi, tile.tile(), state)
        assert np.ascontiguousarray(block).tobytes() == np.ascontiguousarray(whole[:, lo:hi]).tobytes()
        # the state at hi is the one that emitted X_hi on the whole path
        at_hi = [payoffs.index(x) for x in whole[chained, hi - 1].tolist()]
        assert state[chained, column].tolist() == at_hi, (lo, hi)


@pytest.mark.parametrize("name", ["moving_average", "ma_three_values", "ma_zero_innovation"])
def test_a_moving_average_carries_its_innovations_across_tiles(walked_kinds, name):
    proc = walked_kinds[name] if name in walked_kinds else make_process(EXTRA_SPECS[name])
    trials = np.arange(7, 847, 7, dtype=np.uint64)
    whole = proc.sample_block(2, trials, 0, 64)
    drawn = []
    inner = proc.inner.sample_block

    def recording(seed, chunk, lo, hi, scratch=FRESH, state=None):
        drawn.append((lo, hi))
        return inner(seed, chunk, lo, hi, scratch, state)

    proc.inner.sample_block = recording
    try:
        state, order = proc.walk_state(2, trials, Scratch())
        assert order is None
        tile = Scratch()
        for lo, hi in zip((0, 1, 2, 5, 13, 14, 40), (1, 2, 5, 13, 14, 40, 64)):
            block = proc.sample_block(2, trials, lo, hi, tile.tile(), state)
            want = np.ascontiguousarray(whole[:, lo:hi]).tobytes()
            assert np.ascontiguousarray(block).tobytes() == want, (lo, hi)
    finally:
        del proc.inner.sample_block
    # the first window draws the q innovations before it, and none is drawn twice
    q = proc.order
    assert drawn == [(-q, 1), (1, 2), (2, 5), (5, 13), (13, 14), (14, 40), (40, 64)]


@pytest.mark.parametrize(
    "name",
    ["gaussian_drift", "markov_drift", "mixture", "moving_average", "p06_walk", "rotation",
     "two_point", "two_point_chain", "three_state_chain", "mixture_with_chain",
     "rotation_or_ma", "nested_mixture", "four_way_mixture"],
)
def test_walked_trajectories_draw_the_uniforms_of_whole_rows(walked_kinds, monkeypatch, name):
    # one row of increments and one component id per trial, as whole rows
    # drew them: a chain's state, a moving average's innovations, a
    # rotation's phase and a mixture's picks, its children's beside them,
    # cross the tiles instead of being drawn again
    proc = walked_kinds[name]
    counts = []

    def counting(fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[-1] += out.size
            return out

        return counted

    # the compiled kernel draws a Gaussian's increments without
    # uniform_block, so gaussian_block's elements count too
    for attr in ("uniform_block", "uniform_column", "gaussian_block"):
        monkeypatch.setattr(rng_module, attr, counting(getattr(rng_module, attr)))
    trials, n_max = 300, 1000
    idx = np.arange(trials, dtype=np.uint64)
    counts.append(0)
    proc.sample_block(5, idx, 0, n_max)
    proc.component_ids(5, idx)
    # chunks of 150 trials walk tiles of 27 positions
    monkeypatch.setattr(verify_module, "TILE_BYTES", 8 * 4096)
    counts.append(0)
    trajectory_batch(proc, n_max, trials, seed=5, threads=2)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("n_max", [1, 7, 8, 9, 16, 64, 2048])
def test_the_walk_draws_each_position_once_and_only_while_unruined(screened_kinds, monkeypatch, n_max):
    trials = 600
    for name in ("p06_walk", "markov_drift", "rotation", "mixture_with_chain"):
        proc = screened_kinds[name]
        block = proc.sample_block(1, np.arange(trials, dtype=np.uint64), 0, n_max)
        low = np.minimum.accumulate(np.cumsum(block, axis=1), axis=1)  # min(S_1..S_n) at column n - 1
        # tiles of 512 increments, so chunks of 128 trials
        monkeypatch.setattr(verify_module, "TILE_BYTES", 8 * 512)
        calls = _recording(proc, monkeypatch)
        for run in (mc_survival, mc_maximal_ergodic):
            calls.clear()
            run(proc, n_max, trials, seed=1, threads=2)
            reach = np.zeros(trials, dtype=np.intp)
            for lo, hi, chunk in calls:
                rows = chunk.astype(np.intp)
                # each trial's tiles follow one another from position 1:
                # no position is drawn twice or skipped
                assert (reach[rows] == lo).all()
                # and a trial is drawn past a tile only while it is unruined
                if lo:
                    assert (low[rows, lo - 1] > 0.0).all()
                reach[rows] = hi
            # every trial walks until it is ruined or reaches n_max
            ruined = low[np.arange(trials), np.maximum(reach, 1) - 1] <= 0.0
            assert ((reach == n_max) | ruined).all() and (reach >= 1).all(), name
            # every rotation trial is ruined within a few tiles
            if n_max >= 64:
                assert (reach < n_max).sum() > trials // 4, name
                assert len(calls) >= 24 or name == "rotation", name
        monkeypatch.undo()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_ruin_in_any_tile_stays_a_ruin_when_later_sums_turn_nan(monkeypatch):
    # The one reading the walk changes: a row ruined in one tile whose
    # sums reach NaN (+inf, then -inf) in a later one.  Its whole-row
    # minimum is NaN and hid the ruin; the walk stops at the ruin's tile
    # and keeps the minimum up to its end.  Only increments that overflow
    # to +-inf make such rows (see ``check_magnitude``).
    proc, trials, n_max = make_process(OVERFLOWING), 2000, 64
    chunk = np.arange(trials, dtype=np.uint64)
    block = proc.sample_block(3, chunk, 0, n_max)
    sums = np.cumsum(block, axis=1)
    whole_low = sums.min(axis=1)
    # tiles of 2048 increments: 1 position while every trial walks, then wider
    monkeypatch.setattr(verify_module, "TILE_BYTES", 8 * 2048)
    calls = _recording(proc, monkeypatch)
    first, low = verify_module._ruin(proc, 3, chunk, n_max, Scratch().tile())
    assert len({(lo, hi) for lo, hi, _ in calls}) >= 8
    reach = np.zeros(trials, dtype=np.intp)
    for _, hi, walked in calls:
        reach[walked.astype(np.intp)] = hi
    assert first.tobytes() == block[:, 0].tobytes()
    want = np.array([sums[t, : reach[t]].min() for t in range(trials)])
    assert low.tobytes() == want.tobytes()
    kept = (low <= 0.0) & np.isnan(whole_low)
    assert kept.sum() > 50
    assert np.array_equal((low <= 0.0) != (whole_low <= 0.0), kept)
    # survival reads such a row as ruined either way, so it is unchanged
    survival, _ = _one_pass(proc, n_max, trials, seed=3)
    assert mc_survival(proc, n_max, trials, seed=3) == survival


def test_the_walk_keeps_memory_flat_as_the_horizon_grows(corpus):
    # whole rows of 2^20 increments were 8 MiB a trial; a walk's tiles and
    # its per-trial arrays do not grow with the horizon
    proc = corpus["markov_drift"]

    def peaks(n_max):
        runs = (
            lambda: mc_survival(proc, n_max, 8, seed=1),
            lambda: mc_maximal_ergodic(proc, n_max, 8, seed=1),
            lambda: estimate_dip_probability(proc, 0.05, n_max, 8, seed=1),
        )
        return [_traced_peak(run)[1] for run in runs]

    for short, long in zip(peaks(1 << 14), peaks(1 << 20)):
        assert long <= 1.1 * short, (short, long)


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


@pytest.mark.parametrize("name", ["p06_walk", "markov_drift", "gaussian_drift", "moving_average"])
def test_truncation_bound_takes_any_horizon_the_lanes_take(corpus, name):
    # the lanes' refusal below 1, whether or not a bound exists; past the
    # float range the exponent stops at 2^64, a bound the smaller horizon
    # would give too
    for n_max in (0, -(10**14), -(2**63)):
        with pytest.raises(InvalidSpec, match="^n_max must be at least 1$"):
            survival_truncation_bound(corpus[name], n_max)
    far = survival_truncation_bound(corpus[name], 10**400)
    assert far == survival_truncation_bound(corpus[name], 1 << 64)
    assert far is None or far <= survival_truncation_bound(corpus[name], 2048)


# ---------------------------------------------------------------------------
# estimator plumbing
# ---------------------------------------------------------------------------


def test_estimate_ci_from_samples():
    est = EstimateCI.from_samples(np.array([0.0, 1.0, 0.0, 1.0]), z=2.0)
    assert est.mean == 0.5
    assert est.trials == 4
    assert est.ci_low == pytest.approx(0.5 - 2.0 * est.std_error)
    assert est.ci_high == pytest.approx(0.5 + 2.0 * est.std_error)


@pytest.mark.parametrize("n", [2, 3, 8191, 8193, 10**6])
def test_from_samples_equals_numpy_bit_for_bit(n):
    # one shared sum for the mean and the deviations must give np.mean and
    # np.std(ddof=1) exactly, on contiguous rows and on strided columns
    rng = np.random.default_rng(n)
    block = rng.standard_normal((n, 3)) * 1e3 + 7.0
    block[:, 1] = rng.integers(-2, 3, n) * 0.5
    for samples in (block[:, 0], block[:, 1], np.ascontiguousarray(block[:, 2])):
        want_mean = float(np.mean(samples))
        want_se = float(np.std(samples, ddof=1) / math.sqrt(n))
        for scratch in (None, np.empty(n)):
            est = EstimateCI.from_samples(samples, 2.0, scratch)
            assert (est.mean, est.std_error) == (want_mean, want_se)


def _mc_identity_by_columns(process, horizon, trials, seed):
    """mc_identity's estimates the old way: (trials, horizon) arrays of
    terms sampled in one block, np.mean and np.std per column."""
    idx = np.arange(trials, dtype=np.uint64)

    def sums(block):
        return np.concatenate([np.zeros((trials, 1)), np.cumsum(block, axis=1)], axis=1)

    lhs = sent_mass_terms(sums(process.sample_block(seed, idx, 0, horizon)))
    right = sums(process.sample_block(seed, idx + np.uint64(trials), -horizon, 0))
    rhs = received_mass_terms(right - right[:, -1:])

    def estimate(column):
        mean = float(np.mean(column))
        return mean, float(np.std(column, ddof=1) / math.sqrt(trials))

    return [(estimate(lhs[:, n]), estimate(rhs[:, n])) for n in range(horizon)]


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_mc_identity_equals_per_column_reference(corpus, name):
    # 5000 trials span at least two tiles at every horizon here
    for horizon in (1, 8, 64):
        want = _mc_identity_by_columns(corpus[name], horizon, 5_000, 3)
        for threads in (1, 2, 3):
            pairs = mc_identity(corpus[name], horizon, 5_000, seed=3, z=2.0, threads=threads)
            got = [((a.mean, a.std_error), (b.mean, b.std_error)) for a, b in pairs]
            assert got == want, (horizon, threads)


# a large S_-1 absorbs X_0 = -1: such a right window passes the screen
# (X_0 < 0) yet sends the origin nothing, since its mirrored first step
# S_-1 - S_0 rounds to 0
ABSORBING = IidDiscrete(values=(2**60, -1), probs=(F(1, 2), F(1, 2)))


@pytest.mark.parametrize("horizon", [1, 2, 3, 8, 64])
def test_screened_identity_equals_per_column_reference(screened_kinds, monkeypatch, horizon):
    # tiles of a third of the trials' whole windows: three chunks per side
    trials = 600
    monkeypatch.setattr(verify_module, "TILE_BYTES", 8 * horizon * (trials // 3))
    kinds = {**screened_kinds, "absorbing": make_process(ABSORBING)}
    for name, proc in kinds.items():
        want = _mc_identity_by_columns(proc, horizon, trials, 5)
        for threads in (1, 2):
            pairs = mc_identity(proc, horizon, trials, seed=5, z=2.0, threads=threads)
            got = [((a.mean, a.std_error), (b.mean, b.std_error)) for a, b in pairs]
            assert got == want, (name, threads)


def test_an_absorbed_first_step_passes_the_screen_but_sends_nothing():
    proc, trials, horizon = make_process(ABSORBING), 4000, 4
    right = np.arange(trials, 2 * trials, dtype=np.uint64)
    block = proc.sample_block(5, right, -horizon, 0)
    sums = np.concatenate([np.zeros((trials, 1)), np.cumsum(block, axis=1)], axis=1)
    sums -= sums[:, -1:]
    absorbed = (block[:, -1] < 0) & (sums[:, -2] == 0.0)
    assert absorbed.sum() > 1000
    assert not received_mass_terms(sums)[absorbed].any()


@pytest.mark.parametrize(
    "name", ["p06_walk", "moving_average", "rotation", "mixture", "two_point_chain", "mixture_with_chain"]
)
def test_the_identity_draws_whole_windows_only_where_the_first_step_can_carry_mass(
    screened_kinds, monkeypatch, name
):
    proc, trials, horizon = screened_kinds[name], 3000, 8
    left = np.arange(trials, dtype=np.uint64)
    right = left + np.uint64(trials)
    up = np.flatnonzero(proc.sample_block(1, left, 0, 1)[:, 0] > 0.0)
    down = np.flatnonzero(proc.sample_block(1, right, -1, 0)[:, 0] < 0.0) + trials
    calls = []
    sample = proc.sample_block

    def recording(seed, chunk, lo, hi, scratch):
        calls.append((lo, hi, chunk.copy()))
        return sample(seed, chunk, lo, hi, scratch)

    monkeypatch.setattr(proc, "sample_block", recording)
    mc_identity(proc, horizon, trials, seed=1, threads=2)

    def drawn(lo, hi):
        chunks = [c for a, b, c in calls if (a, b) == (lo, hi)]
        return sorted(np.concatenate(chunks).tolist()) if chunks else []

    whole = [c for a, b, c in calls if b - a == horizon]
    assert all(len(c) <= verify_module._chunk_size(horizon) for c in whole)
    assert drawn(0, 1) == left.tolist()
    assert drawn(0, horizon) == up.tolist()
    if proc.index_pure:
        assert drawn(-1, 0) == right.tolist()
        assert drawn(-horizon, 0) == down.tolist()
    else:  # a chain's X_0 drawn alone is not its window's: no screen
        assert drawn(-1, 0) == []
        assert drawn(-horizon, 0) == right.tolist()
    assert {(a, b) for a, b, _ in calls} <= {(0, 1), (-1, 0), (0, horizon), (-horizon, 0)}


def _held_terms(proc, horizon: int, first: int, lo: int, mass_terms) -> int:
    """The mass terms for n = 2..horizon that differ from +0.0 in any bit,
    of one side of mc_identity's 100 trials starting at ``first``."""
    block = proc.sample_block(0, np.arange(first, first + 100, dtype=np.uint64), lo, lo + horizon)
    sums = np.concatenate([np.zeros((100, 1)), np.cumsum(block, axis=1)], axis=1)
    if lo < 0:
        sums -= sums[:, -1:]
    return int(np.count_nonzero(mass_terms(sums)[:, 1:].view(np.int64)))


def test_mc_identity_memory_check_counts_one_side_of_terms(corpus, monkeypatch):
    # 100 trials at horizon 16 keep a row of all trials (800 bytes) and,
    # one side at a time, 12 bytes for each term they hold for n = 2..16
    proc = corpus["p06_walk"]
    held = max(
        _held_terms(proc, 16, 0, 0, sent_mass_terms),
        _held_terms(proc, 16, 100, -16, received_mass_terms),
    )
    assert 0 < held < 15 * 100 // 2
    needed = 800 + 12 * held
    for nbytes in (needed - 1, needed):
        memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(scratch_module.os, "sysconf", memory.get)
        if nbytes < needed:
            with pytest.raises(InvalidSpec) as err:
                mc_identity(proc, 16, 100, seed=0)
            assert err.value.where == "trials"
        else:
            assert len(mc_identity(proc, 16, 100, seed=0)) == 16


class _Started(Exception):
    pass


def _refusal(monkeypatch, memory: int, horizon: int, trials: int) -> str | None:
    """The field mc_identity's checks before the run refuse, with
    ``memory`` bytes of physical memory, or None where the run starts."""
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
    monkeypatch.setattr(scratch_module.os, "sysconf", sizes.get)

    def started(*args):
        raise _Started

    monkeypatch.setattr(verify_module, "_run_chunks", started)
    try:
        mc_identity(make_process(IidDiscrete((1,), (1,))), horizon, trials, seed=0)
    except InvalidSpec as err:
        return err.where
    except _Started:
        return None
    raise AssertionError("the identity ran no chunk")


def test_mc_identity_memory_check_sizes_the_row_not_a_dense_buffer(monkeypatch):
    # a dense buffer at horizon 1024 and 1.1 M trials took 9.0 GB, and the
    # row takes 8.8 MB; an 8.4 GB machine starts the run
    assert _refusal(monkeypatch, 8_408_645_632, 1024, 1_100_000) is None
    assert _refusal(monkeypatch, 8 * 1_100_000 - 1, 1024, 1_100_000) == "trials"
    # one trial's window is the tile's least
    assert _refusal(monkeypatch, 8 * 1024 - 1, 1024, 2) == "horizon"
    # past the memory, the work cap: both sides draw 2 * horizon a trial
    big = 1 << 60
    assert _refusal(monkeypatch, big, verify_module.MAX_INCREMENTS // 2, 2) == "trials"
    assert _refusal(monkeypatch, big, verify_module.MAX_INCREMENTS // 2 + 1, 2) == "horizon"
    assert _refusal(monkeypatch, big, 10**400, 2) == "horizon"


def _traced_peak(run):
    """(run(), the peak of the memory it allocated, numpy's buffers included)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_identity_keeps_one_side_of_terms_in_memory(corpus):
    # one side's terms for n = 2..8 are 7 floats per trial, and the tiles
    # add about 3 MiB; both sides and a buffer of deviations were 17 floats
    trials = 200_000
    pairs, peak = _traced_peak(lambda: mc_identity(corpus["p06_walk"], 8, trials, seed=0))
    assert peak <= 7 * trials * 8 + (4 << 20)
    assert mc_identity(corpus["p06_walk"], 8, trials, seed=0, threads=3) == pairs


@pytest.mark.parametrize("name, horizon", [("p06_walk", 8), ("moving_average", 16)])
def test_mc_identity_keeps_its_nonzero_terms_and_one_row(corpus, name, horizon):
    # 5% of p06_walk's terms and 2% of moving_average's are nonzero: the
    # store and the row fit in two floats per trial, where a dense buffer
    # of horizon - 1 floats per trial did not
    trials = 200_000
    pairs, peak = _traced_peak(lambda: mc_identity(corpus[name], horizon, trials, seed=0))
    assert peak <= 2 * trials * 8 + (4 << 20)
    assert mc_identity(corpus[name], horizon, trials, seed=0, threads=3) == pairs


# X alternates +2, -1 from a uniform phase, so P(X > 0) = P(X < 0) = 1/2:
# M(0, 2) is nonzero on every path with X_1 > 0, and M(-2, 0) on every
# path with X_0 < 0, the densest a row of terms can be
ALTERNATING = Rotation(pieces=((0.0, 2), (0.5, -1)), angle=0.5)


def test_a_half_dense_row_stores_no_more_bytes_than_a_dense_buffer(monkeypatch):
    proc, trials, horizon = make_process(ALTERNATING), 200_000, 2
    stores = []
    run_chunks = verify_module._run_chunks

    def recording(*args):
        parts = run_chunks(*args)
        stores.append(parts)
        return parts

    monkeypatch.setattr(verify_module, "_run_chunks", recording)
    pairs = mc_identity(proc, horizon, trials, seed=0, threads=2)
    got = [((a.mean, a.std_error), (b.mean, b.std_error)) for a, b in pairs]
    assert got == _mc_identity_by_columns(proc, horizon, trials, 0)
    assert len(stores) == 2  # one store per side
    for parts in stores:
        held = sum(len(values) for _, _, values, *_ in parts)
        assert abs(held / trials - 0.5) < 0.01
        nbytes = sum(a.nbytes for part in parts for a in part if isinstance(a, np.ndarray))
        assert nbytes <= 8 * (horizon - 1) * trials


def test_mc_maximal_ergodic_keeps_one_float_per_trial(corpus):
    trials = 200_000
    est, peak = _traced_peak(lambda: mc_maximal_ergodic(corpus["rotation"], 16, trials, seed=0))
    assert peak <= trials * 8 + (4 << 20)
    assert mc_maximal_ergodic(corpus["rotation"], 16, trials, seed=0, threads=3) == est


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
                mc_identity(corpus["moving_average"], 150, 3_000, seed=4, threads=2),
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
    # tiles of 4096 trials at width 1
    monkeypatch.setattr(verify_module, "TILE_BYTES", 8 * 4096)
    size = verify_module._chunk_size(1)
    chunks = [min(size, 20_000 - start) for start in range(0, 20_000, size)]
    assert len(chunks) == 5
    expected = mc_survival(corpus["p06_walk"], 1, 20_000, seed=2)
    for threads in (2, 3, 1 << 20):
        lengths = verify_module._run_chunks(20_000, threads, len)
        assert lengths == chunks
        assert mc_survival(corpus["p06_walk"], 1, 20_000, seed=2, threads=threads) == expected
    assert _RecordingPool.sizes == [2, 2, 3, 3, 3, 3]


def test_a_run_of_fewer_tiles_than_threads_is_split_among_them(monkeypatch):
    # a tile at width 1 holds 65536 trials; no thread starts here either
    monkeypatch.setattr(verify_module, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 3)
    assert verify_module._run_chunks(5000, 1, len) == [5000]
    assert verify_module._run_chunks(5000, 2, len) == [2500, 2500]
    assert verify_module._run_chunks(5000, 8, len) == [1667, 1667, 1666]
    assert verify_module._run_chunks(2, 3, len) == [1, 1]
    assert verify_module._run_chunks(0, 2, len) == []
    assert _RecordingPool.sizes == [2, 3, 2]
