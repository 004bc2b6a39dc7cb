"""Process corpus: validation, stationarity, exact laws, sampling contracts."""

from __future__ import annotations

from fractions import Fraction
import re

import numpy as np
import pytest

from masstransport import (
    ExplosionCap,
    IidDiscrete,
    IidGaussian,
    InvalidSpec,
    MarkovChain,
    Mixture,
    MovingAverage,
    NoStationaryDistribution,
    PathWindow,
    Rotation,
    UnsupportedProcess,
    exact_survival,
    make_process,
    sample_window,
)

from masstransport import rng
from masstransport import processes as processes_module
from masstransport.processes import (
    GOLDEN_ANGLE,
    _chain_decay,
    _chain_path,
    exact_fold,
    exact_window_distribution,
    negate_spec,
    stationary_distribution,
    _count_cuts,
    _inverse_cdf,
    _two_state_path,
    _unit_mod,
)
from masstransport.scratch import Scratch, order_of

from conftest import EXACT_NAMES, SPEC_NAMES
from test_exact_oracle import THREE_STATE_CHAIN

F = Fraction


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_probabilities_must_sum_to_one():
    with pytest.raises(InvalidSpec):
        make_process(IidDiscrete(values=(1, -1), probs=(0.7, 0.4)))


def test_exact_half_probabilities_accepted():
    # 0.5 converts to the exact rational 1/2, so validation passes.
    proc = make_process(IidDiscrete(values=(1, -1), probs=(0.5, 0.5)))
    assert proc.exact_mean() == 0


def test_negative_probability_rejected():
    with pytest.raises(InvalidSpec):
        make_process(IidDiscrete(values=(1, -1), probs=(F(3, 2), F(-1, 2))))


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_probability_rejected(p):
    with pytest.raises(InvalidSpec, match="probs"):
        make_process(IidDiscrete(values=(1, -1), probs=(p, 0.5)))


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda x: IidDiscrete(values=(1, x), probs=(F(1, 2), F(1, 2))), "values[1]"),
        (lambda x: MarkovChain(transitions=((F(1),),), payoffs=(x,)), "payoffs[0]"),
        (lambda x: Rotation(pieces=((0.0, 1), (0.5, x))), "pieces[1][1]"),
    ],
)
@pytest.mark.parametrize("x", [float("nan"), float("inf"), np.float64("-inf"), 10**400])
def test_values_must_be_finite_floats(build, where, x):
    with pytest.raises(InvalidSpec, match=re.escape(where)):
        build(x)


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda x: Rotation(pieces=((x, 1),)), "pieces[0][0]"),
        (lambda x: make_process(IidGaussian(mean=x, stddev=1)), "mean"),
        (lambda x: make_process(IidGaussian(mean=0, stddev=x)), "stddev"),
    ],
)
def test_float_fields_past_the_float_range_are_refused(build, where):
    with pytest.raises(InvalidSpec, match=re.escape(where)):
        build(10**400)


def test_length_mismatch_rejected():
    with pytest.raises(InvalidSpec):
        make_process(IidDiscrete(values=(1, -1, 0), probs=(F(1, 2), F(1, 2))))


def test_gaussian_needs_positive_stddev():
    with pytest.raises(InvalidSpec):
        make_process(IidGaussian(mean=0.0, stddev=0.0))


def test_markov_rows_must_be_stochastic():
    with pytest.raises(InvalidSpec):
        make_process(
            MarkovChain(transitions=((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), payoffs=(1, -1))
        )


def test_markov_square_matrix_required():
    with pytest.raises(InvalidSpec):
        make_process(MarkovChain(transitions=((F(1),),), payoffs=(1, -1)))


def test_moving_average_needs_coefficients():
    with pytest.raises(InvalidSpec):
        make_process(
            MovingAverage(
                coefficients=(),
                innovation=IidDiscrete(values=(1, -1), probs=(F(1, 2), F(1, 2))),
            )
        )


def test_rotation_breakpoints_must_increase_within_unit_interval():
    with pytest.raises(InvalidSpec):
        make_process(Rotation(pieces=((0.0, 1.0), (0.5, -1.0), (0.5, 2.0)), angle=0.3))
    with pytest.raises(InvalidSpec):
        make_process(Rotation(pieces=((0.0, 1.0), (1.25, -1.0)), angle=0.3))


def test_rotation_wrap_allows_nonzero_first_breakpoint():
    # Points below the first breakpoint fall on the wrapped last piece.
    proc = make_process(Rotation(pieces=((0.25, 1.0), (0.5, -1.0)), angle=0.3))
    assert proc.mean() == pytest.approx(0.25 * 1.0 + 0.75 * -1.0)


def test_rotation_angle_must_sit_in_unit_interval():
    with pytest.raises(InvalidSpec):
        make_process(Rotation(pieces=((0.0, 1.0),), angle=1.5))


def test_mixture_weights_must_sum_to_one():
    child = IidDiscrete(values=(1,), probs=(F(1),))
    with pytest.raises(InvalidSpec):
        make_process(Mixture(components=((F(1, 2), child), (F(1, 3), child))))


# ---------------------------------------------------------------------------
# Stationary distributions
# ---------------------------------------------------------------------------


def test_stationary_identity_matrix_has_no_unique_solution():
    with pytest.raises(NoStationaryDistribution):
        stationary_distribution(((F(1), F(0)), (F(0), F(1))))


def test_stationary_alternating_chain():
    pi = stationary_distribution(((F(0), F(1)), (F(1), F(0))))
    assert pi == (F(1, 2), F(1, 2))


def test_stationary_symmetric_chain():
    pi = stationary_distribution(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    assert pi == (F(1, 2), F(1, 2))


def test_stationary_three_state_hand_value():
    # Solve pi P = pi by hand: pi = (1/4, 1/2, 1/4) for this birth-death chain.
    p = (
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 4), F(1, 2), F(1, 4)),
        (F(0), F(1, 2), F(1, 2)),
    )
    assert stationary_distribution(p) == (F(1, 4), F(1, 2), F(1, 4))


def test_chain_with_transient_state_is_rejected_at_build():
    # Unique stationary law (1, 0) exists but puts zero mass on a state,
    # so the shift-stationary construction refuses it.
    spec = MarkovChain(transitions=((F(1), F(0)), (F(1, 2), F(1, 2))), payoffs=(1, -1))
    assert stationary_distribution(spec.transitions) == (F(1), F(0))
    with pytest.raises(NoStationaryDistribution):
        make_process(spec)


def _stationary_law_by_rref(rows):
    """The stationary law as it was solved before: the reduced row echelon
    form of P^T - I, then the free column's null vector, normalized.
    Reference for the tests."""
    n = len(rows)
    a = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    pivots, r = [], 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    if len(pivots) != n - 1:
        raise NoStationaryDistribution("fixed space is not one dimensional")
    free = next(c for c in range(n) if c not in pivots)
    x = [F(0)] * n
    x[free] = F(1)
    for r, c in enumerate(pivots):
        x[c] = -a[r][free]
    total = sum(x)
    return tuple(v / total for v in x)


def _random_law(rs, k):
    """A rational law on k points, about half of them of probability 0."""
    weights = [int(w) * (rs.random() < 0.5) for w in rs.integers(1, 8, k)]
    if not any(weights):
        weights[int(rs.integers(k))] = 1
    return tuple(F(w, sum(weights)) for w in weights)


def _random_stochastic_rows(rs, k):
    """A k-state rational row-stochastic matrix, about half its entries 0."""
    return tuple(_random_law(rs, k) for _ in range(k))


def test_stationary_law_equals_the_rref_solve_on_random_chains():
    rs = np.random.default_rng(11)
    outcomes = {"law": 0, "raised": 0}
    for _ in range(1500):
        rows = _random_stochastic_rows(rs, int(rs.integers(1, 7)))
        try:
            expected = _stationary_law_by_rref(rows)
        except NoStationaryDistribution:
            with pytest.raises(NoStationaryDistribution):
                stationary_distribution(rows)
            outcomes["raised"] += 1
            continue
        got = stationary_distribution(rows)
        assert got == expected and all(type(p) is F for p in got)
        outcomes["law"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_drift_chain_stationary_law(corpus):
    chain = corpus["markov_drift"]
    assert chain.pi == (F(2, 3), F(1, 3))
    assert chain.exact_mean() == 1


# ---------------------------------------------------------------------------
# Exact window laws
# ---------------------------------------------------------------------------


def block_law(atoms, k: int, length: int) -> dict[tuple, F]:
    """Marginal law of the increments (X_{k+1}, .., X_{k+length}) of window atoms."""
    law: dict[tuple, F] = {}
    for window, p in atoms:
        block = window.values[k - window.lo : k - window.lo + length]
        law[block] = law.get(block, F(0)) + p
    return law


def test_exact_distribution_atoms_partition_probability(corpus):
    for name in EXACT_NAMES:
        atoms = exact_window_distribution(corpus[name], -2, 2)
        total = sum(p for _, p in atoms)
        assert total == 1
        assert all(p > 0 for _, p in atoms)


def test_exact_mean_matches_window_marginal(corpus):
    for name in EXACT_NAMES:
        proc = corpus[name]
        atoms = exact_window_distribution(proc, -1, 2)
        for k in (0, 1, 2):
            marginal = sum(p * w.x(k) for w, p in atoms)
            assert marginal == proc.exact_mean()


def test_shift_invariance_of_exact_block_laws(corpus):
    # The law of (X_k, ..., X_{k+L-1}) must not depend on k.
    for name in EXACT_NAMES:
        atoms = exact_window_distribution(corpus[name], -3, 3)
        for length in (1, 2, 3):
            laws = [block_law(atoms, k, length) for k in range(-2, 4 - length)]
            assert all(law == laws[0] for law in laws[1:])


def test_chain_twin_matches_iid_law(corpus):
    # The symmetric two-state chain with matching payoffs generates the
    # same window law as the iid two-point process.
    iid = exact_window_distribution(corpus["two_point"], -2, 3)
    twin = exact_window_distribution(corpus["two_point_chain"], -2, 3)
    assert block_law(iid, -2, 5) == block_law(twin, -2, 5)


def test_gaussian_has_no_exact_law(corpus):
    with pytest.raises(UnsupportedProcess):
        exact_window_distribution(corpus["gaussian_drift"], 0, 2)


def test_atom_cap_triggers_explosion_error(corpus):
    with pytest.raises(ExplosionCap):
        exact_window_distribution(corpus["p06_walk"], 0, 8, atom_cap=100)


# ---------------------------------------------------------------------------
# Monte Carlo stationarity and sampling contracts
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic(corpus):
    trials = np.arange(32, dtype=np.uint64)
    for name in SPEC_NAMES:
        a = corpus[name].sample_block(11, trials, -4, 4)
        b = corpus[name].sample_block(11, trials, -4, 4)
        np.testing.assert_array_equal(a, b)


def test_prefix_stability_when_extending_right(corpus):
    trials = np.arange(32, dtype=np.uint64)
    for name in SPEC_NAMES:
        short = corpus[name].sample_block(3, trials, -2, 3)
        long = corpus[name].sample_block(3, trials, -2, 9)
        np.testing.assert_array_equal(short, long[:, : short.shape[1]])


def test_windows_with_different_starts_agree_except_for_chains(corpus):
    # iid, moving-average and rotation increments depend on their own index
    # only; a chain restarts from its stationary law at lo + 1, so only its
    # windows with the same lo are sure to agree.  The bundled mixture has
    # no chain component.
    trials = np.arange(200, dtype=np.uint64)
    for name in SPEC_NAMES:
        wide = corpus[name].sample_block(3, trials, -6, 10)
        chain = isinstance(corpus[name].spec, MarkovChain)
        for lo, hi in ((-2, 10), (0, 4), (-6, 0), (3, 7)):
            if chain and lo != -6:
                continue
            window = corpus[name].sample_block(3, trials, lo, hi)
            np.testing.assert_array_equal(window, wide[:, lo + 6 : hi + 6], err_msg=name)
    drift = corpus["markov_drift"]
    restarted = drift.sample_block(3, trials, -2, 10)
    assert not np.array_equal(restarted, drift.sample_block(3, trials, -6, 10)[:, 4:])


def test_window_values_live_on_support(corpus):
    trials = np.arange(200, dtype=np.uint64)
    block = corpus["p06_walk"].sample_block(1, trials, -3, 3)
    assert set(np.unique(block)) <= {-1.0, 1.0}
    chain_block = corpus["markov_drift"].sample_block(1, trials, -3, 3)
    assert set(np.unique(chain_block)) <= {-1.0, 2.0}


def test_mc_stationarity_of_continuous_processes(corpus):
    # Column means across positions agree within Monte Carlo error.
    trials = np.arange(40_000, dtype=np.uint64)
    for name in ("gaussian_drift", "rotation"):
        proc = corpus[name]
        block = proc.sample_block(17, trials, -3, 3)
        se = block.std(ddof=1) / np.sqrt(len(trials))
        for j in range(block.shape[1]):
            assert abs(block[:, j].mean() - proc.mean()) < 4.5 * se


def test_markov_marginal_matches_stationary_law(corpus):
    chain = corpus["markov_drift"]
    trials = np.arange(100_000, dtype=np.uint64)
    block = chain.sample_block(23, trials, 0, 1)
    mean = block[:, 0].mean()
    se = block[:, 0].std(ddof=1) / np.sqrt(len(trials))
    assert abs(mean - 1.0) < 3.0 * se


def test_moving_average_empirical_mean(corpus):
    ma = corpus["moving_average"]
    assert ma.exact_mean() == 0
    trials = np.arange(50_000, dtype=np.uint64)
    block = ma.sample_block(29, trials, 0, 2)
    se = block.std(ddof=1) / np.sqrt(block.size)
    assert abs(block.mean()) < 4.5 * se


def test_rotation_mean_matches_arc_lengths(corpus):
    rot = corpus["rotation"]
    # Four quarter arcs with values +1, -1, +1, -1 average to zero.
    assert rot.mean() == pytest.approx(0.0, abs=1e-12)


def test_mixture_components_and_ids(corpus):
    mix = corpus["mixture"]
    components = mix.components()
    assert [w for w, _ in components] == [F(1, 2), F(1, 2)]
    assert sorted(c.mean() for _, c in components) == [-2.0, 1.0]
    trials = np.arange(500, dtype=np.uint64)
    ids = mix.component_ids(7, trials)
    block = mix.sample_block(7, trials, -2, 2)
    for t in range(len(trials)):
        want = components[ids[t]][1].mean()
        assert np.all(block[t] == want)
    assert set(ids) == {0, 1}


def test_sample_window_accessors(corpus):
    w = sample_window(corpus["two_point"], -3, 3, seed=5, trial=2)
    assert w.lo == -3 and w.hi == 3
    assert w.s(-3) == 0
    for k in range(-2, 4):
        assert w.s(k) == w.s(k - 1) + w.x(k)


def test_path_window_validation():
    with pytest.raises(InvalidSpec):
        PathWindow.from_values(0, [])
    with pytest.raises(InvalidSpec):
        PathWindow.from_values(1, [1.0, 2.0])
    # Increments X_0 = 1, X_1 = -2 anchored at S_0 = 0.
    w = PathWindow.from_values(-1, [1, -2])
    assert w.sums == (-1, 0, -2)
    assert w.x(0) == 1 and w.x(1) == -2


def test_negation_is_pathwise_exact_for_non_gaussian(specs):
    trials = np.arange(64, dtype=np.uint64)
    for name in SPEC_NAMES:
        if name == "gaussian_drift":
            continue
        proc = make_process(specs[name])
        anti = make_process(negate_spec(specs[name]))
        a = proc.sample_block(13, trials, -3, 3)
        b = anti.sample_block(13, trials, -3, 3)
        np.testing.assert_array_equal(a, -b)


def test_negation_flips_gaussian_mean(specs):
    anti = negate_spec(specs["gaussian_drift"])
    assert anti.mean == -specs["gaussian_drift"].mean
    assert anti.stddev == specs["gaussian_drift"].stddev


# ---------------------------------------------------------------------------
# Sampler shortcuts against the general operations they replace
# ---------------------------------------------------------------------------


def _with_edges(cuts):
    """Points on, just below and just above every cut, then random ones."""
    on = np.concatenate([cuts, np.nextafter(cuts, -1.0), np.nextafter(cuts, 2.0)])
    rest = np.random.default_rng(0).random(997)
    return np.stack([np.concatenate([on, rest]), np.concatenate([rest, on])])


def test_table_count_matches_searchsorted():
    # u exactly on a cumulative weight belongs to that weight's value
    # (side='left'); a point exactly on a breakpoint starts that piece
    # (side='right').  Past the scan limit the binary search itself runs.
    tables = (
        np.array([0.6]),
        np.array([0.0, 0.25, 0.5, 0.75]),
        np.cumsum(np.full(39, 1 / 40)),
        np.array([]),
    )
    for cuts in tables:
        x = _with_edges(cuts)
        for side in ("left", "right"):
            np.testing.assert_array_equal(
                _count_cuts(cuts, x, side), np.searchsorted(cuts, x, side=side)
            )
    cum = np.array([0.6, 1.0])
    u = _with_edges(cum[:1])
    np.testing.assert_array_equal(_inverse_cdf(cum, u), np.searchsorted(cum, u, side="left"))


def test_two_valued_draws_match_the_binary_search(corpus):
    proc = corpus["p06_walk"]
    trials = np.arange(64, dtype=np.uint64)
    u = rng.uniform_block(9, proc.stream, trials, rng.index_positions(-49, 50))
    expected = np.array([1.0, -1.0])[np.searchsorted([0.6, 1.0], u, side="left")]
    np.testing.assert_array_equal(proc.sample_block(9, trials, -50, 50), expected)


def test_unit_mod_matches_np_mod_bit_for_bit():
    # phase + offset landing exactly on 1.0, or on a breakpoint plus one;
    # offsets k * angle, negative left of the origin; and the edges of
    # the exact-subtraction range
    phase = np.array([0.5, 0.75, 0.25, 1 - 2**-53, 2**-54, 0.5])
    offset = np.array([0.5, 0.5, 0.75, 2**-53, 1 - 2**-53, 0.75])
    crafted = np.concatenate(
        [
            phase + offset,
            [1.0, 1.25, 1.5, 1.75, 0.0, -0.0, -0.25, -1e-20, -3.0, -7.5],
            [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0)],
            [2.0**52 + 0.5, 2.0**53, -(2.0**53) - 2.0, 1e300, -1e300],
        ]
    )
    offsets = np.arange(-5000, 5000).astype(np.float64) * GOLDEN_ANGLE
    sums = np.random.default_rng(2).random((2, 1000)).sum(axis=0)
    for x in (crafted, offsets, sums):
        assert _unit_mod(x.copy()).tobytes() == np.mod(x, 1.0).tobytes()


def test_rotation_draws_match_mod_and_binary_search(corpus):
    spec = Rotation(((0.1, 1.0), (0.3, -0.5), (0.95, 2.0)), angle=0.3183098861837907)
    for proc in (corpus["rotation"], make_process(spec)):
        trials = np.arange(50, dtype=np.uint64)
        phase = rng.uniform_column(4, proc.stream, trials, 0)
        ks = np.arange(-300, 301, dtype=np.int64).astype(np.float64)
        t = np.mod(phase[:, None] + np.mod(ks * proc.spec.angle, 1.0)[None, :], 1.0)
        breaks = np.array([b for b, _ in proc.spec.pieces])
        values = np.array([float(v) for _, v in proc.spec.pieces])
        idx = np.searchsorted(breaks, t, side="right") - 1
        idx[idx < 0] = len(breaks) - 1
        np.testing.assert_array_equal(proc.sample_block(4, trials, -301, 300), values[idx])


def _chain_by_columns(row_cum, first, u):
    """The column-by-column chain step that _two_state_path replaces."""
    states = np.empty(u.shape, dtype=np.intp)
    states[:, 0] = first
    for j in range(1, u.shape[1]):
        states[:, j] = np.sum(row_cum[states[:, j - 1]] < u[:, j, None], axis=1)
    return states


def test_two_state_paths_match_the_chain_step():
    # (0.75, 0.5) is markov_drift and (0.5, 0.5) its fair twin: no column
    # can swap, so the shortcut applies.  (0.25, 0.75) swaps on
    # 0.25 < u <= 0.75.  Draws sit exactly on the cuts as well.
    rs = np.random.default_rng(1)
    for c0, c1 in ((0.75, 0.5), (0.5, 0.5), (0.25, 0.75)):
        row_cum = np.array([[c0, 1.0], [c1, 1.0]])
        pool = np.array([c0, c1, np.nextafter(c0, 1.0), np.nextafter(c1, 1.0), 0.1, 0.6, 0.9])
        u = rs.choice(pool, size=(40, 300))
        first = rs.integers(0, 2, 40)
        expected = _chain_by_columns(row_cum, first, u)
        assert ((c0 < u) & (u <= c1)).any() == (c0 < c1)
        np.testing.assert_array_equal(_two_state_path(first, u, c0, c1, swaps=True), expected)
        if c0 >= c1:
            np.testing.assert_array_equal(
                _two_state_path(first, u, c0, c1, swaps=False), expected
            )


def test_chains_of_three_states_match_the_chain_step():
    # Blocks of many short trials (trial-contiguous) and of few long ones
    # (position-contiguous), sampled into one reused scratch tile after
    # tile: each equals the column-by-column step from the same uniforms.
    proc = make_process(THREE_STATE_CHAIN)
    row_cum = proc._row_cum
    tile = Scratch()
    blocks = []
    for first_trial, count, lo, hi, order in (
        (0, 300, -20, 20, "F"),
        (300, 300, -20, 20, "F"),
        (600, 12, -150, 150, "C"),
        (612, 40, 0, 40, "C"),
    ):
        trials = np.arange(first_trial, first_trial + count, dtype=np.uint64)
        u = rng.uniform_block(6, proc.stream, trials, rng.index_positions(lo + 1, hi))
        first = np.searchsorted(proc._pi_cum, u[:, 0], side="left")
        states = _chain_by_columns(row_cum, first, u)
        assert set(np.unique(states)) == {0, 1, 2}
        block = proc.sample_block(6, trials, lo, hi, tile.tile())
        assert order_of(block) == order
        np.testing.assert_array_equal(block, proc._payoff_f[states])
        blocks.append(block)
    # the tiles of equal shape reused one array: nothing was allocated anew
    assert blocks[0] is blocks[1]


def test_chain_paths_match_the_chain_step_on_the_cuts():
    # draws exactly on, just below and just above every cumulative entry,
    # in blocks of either memory order
    proc = make_process(THREE_STATE_CHAIN)
    row_cum = proc._row_cum
    cuts = np.unique(row_cum[:, :-1])
    pool = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0), [0.05, 0.95]])
    rs = np.random.default_rng(3)
    for shape in ((200, 30), (30, 200)):
        u = rs.choice(pool, size=shape)
        first = rs.integers(0, 3, shape[0])
        expected = _chain_by_columns(row_cum, first, u)
        for order in ("C", "F"):
            got = _chain_path(first, np.asarray(u, order=order), proc._cut_columns)
            assert order_of(got) == order
            np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# truncation bound: the ruin decay search


def _chain_decay_200_steps(mean, matrix, payoffs, start):
    """The search as it ran before it stopped at its fixed point: 200
    ternary steps of two eigvals calls each.  Reference for the tests."""
    if mean <= 0:
        return None
    if payoffs.min() >= 0.0:
        return 0.0, 0.0

    def tilted(lam):
        return matrix * np.exp(-lam * payoffs)[None, :]

    def radius(lam):
        return float(np.max(np.abs(np.linalg.eigvals(tilted(lam)))))

    hi = 1.0
    for _ in range(200):
        if radius(hi) >= 1.0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if radius(m1) <= radius(m2):
            hi = m2
        else:
            lo = m1
    lam = (lo + hi) / 2.0
    b = tilted(lam)
    rho = radius(lam)
    if not (0.0 < rho < 1.0):
        return None
    eigvals, eigvecs = np.linalg.eig(b)
    u = np.abs(eigvecs[:, int(np.argmax(np.abs(eigvals)))])
    if u.min() <= 1e-12 * u.max():
        return None
    c = float(start @ np.exp(-lam * payoffs)) * float(u.max() / u.min()) / rho
    return rho, c


def _random_chains(count, seed=5):
    """(mean, matrix, payoffs, start) of irreducible chains of 2 to 6 states
    with zero entries, integer payoffs on odd draws and 3-decimal ones on
    even draws, started from their stationary law."""
    rs = np.random.default_rng(seed)
    for i in range(count):
        k = int(rs.integers(2, 7))
        m = rs.random((k, k)) * (rs.random((k, k)) > 0.3)
        m[np.arange(k), (np.arange(k) + 1) % k] += 0.1  # a cycle through every state
        m /= m.sum(axis=1, keepdims=True)
        w, v = np.linalg.eig(m.T)
        pi = np.abs(np.real(v[:, np.argmin(np.abs(w - 1.0))]))
        pi /= pi.sum()
        if i % 2:
            payoffs = rs.integers(-4, 5, k).astype(float)
        else:
            payoffs = np.round(rs.normal(0.5, 2.0, k), 3)
        yield float(pi @ payoffs), m, payoffs, pi


def test_ruin_decay_equals_the_200_step_search_on_every_bundled_spec(corpus, monkeypatch):
    got = {name: proc.ruin_decay() for name, proc in corpus.items()}
    monkeypatch.setattr(processes_module, "_chain_decay", _chain_decay_200_steps)
    assert got == {name: proc.ruin_decay() for name, proc in corpus.items()}
    assert sum(decay is not None and decay[0] > 0.0 for decay in got.values()) == 5


def test_ruin_decay_equals_the_200_step_search_on_random_chains():
    outcomes = {"bound": 0, "none": 0, "raised": 0}
    for chain in _random_chains(500):
        got = _chain_decay(*chain)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _chain_decay_200_steps(*chain)
        except np.linalg.LinAlgError:
            # the radius does not reach 1 before exp overflows, where the
            # old search raised: the search ends at the last finite probe,
            # whose radius is below 1, so there is a bound
            assert got is not None and 0.0 < got[0] < 1.0 and got[1] > 0.0
            outcomes["raised"] += 1
            continue
        assert got == expected
        outcomes["none" if got is None else "bound"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_stacked_eigvals_equal_separate_calls_bit_for_bit(corpus, monkeypatch):
    # every pair of probe matrices the search hands to one eigvals call
    stacks = []
    eigvals = np.linalg.eigvals

    def recording(a):
        if a.ndim == 3:
            stacks.append(a.copy())  # the search refills one buffer
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    for proc in corpus.values():
        proc.ruin_decay()
    for chain in _random_chains(500):
        _chain_decay(*chain)
    monkeypatch.undo()
    assert len(stacks) > 10_000
    for stack in stacks:
        both = eigvals(stack)
        for one, row in zip(stack, both):
            alone = eigvals(one)
            # the batch is complex when either matrix has a complex
            # eigenvalue; widening a real result to complex is exact
            assert row.tobytes() == alone.astype(both.dtype).tobytes()
            assert np.abs(row).max() == np.abs(alone).max()


def test_the_search_stops_at_its_fixed_point(corpus, monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert corpus["p06_walk"].ruin_decay() is not None
    # the 200-step search made 401 calls here
    assert len(calls) <= 130


@pytest.mark.parametrize(
    "values, probs, expected",
    [
        ((1, -1), (F(1), F(0)), (0.0, 0.0)),  # the -1 never occurs
        ((2, -1, -3), (F(1, 2), F(1, 2), F(0)), "bound"),
        # exp(2 lam) overflows before the radius reaches 1, at lam = 512;
        # the radius is smallest near lam = 230
        ((1, -2), (1 - F(1, 10**300), F(1, 10**300)), "bound"),
    ],
)
def test_ruin_decay_without_a_reachable_bound_does_not_raise(values, probs, expected):
    proc = make_process(IidDiscrete(values=values, probs=probs))
    decay = proc.ruin_decay()
    if expected != "bound":
        assert decay == expected
        return
    assert decay is not None and 0.0 < decay[0] < 1.0
    rho, c = (F(x) for x in decay)
    for n in (8, 64):
        # part of the bias of stopping at n: a first ruin in (n, 2n]
        bias = exact_survival(proc, n) - exact_survival(proc, 2 * n)
        # in rationals: the float bound of 1 - 1e-300 underflows to 0.0
        assert 0 < bias <= c * rho ** (n + 1) / (1 - rho), n


# ---------------------------------------------------------------------------
# truncation bound: the chain read from the step law


def _iid_chain(proc):
    """What the iid kind fed the search before it read the step law: an
    iid walk is a chain whose rows all equal the value law."""
    probs = np.array([float(p) for p in proc.spec.probs])
    return np.tile(probs, (len(probs), 1)), np.array([float(v) for v in proc.spec.values]), probs


def _markov_chain(proc):
    """What the Markov kind fed the search before it read the step law."""
    matrix = np.array([[float(p) for p in row] for row in proc.spec.transitions])
    payoffs = np.array([float(v) for v in proc.spec.payoffs])
    return matrix, payoffs, np.array([float(p) for p in proc.pi])


def _fed_to_the_search(proc, monkeypatch):
    """(ruin_decay(), (matrix, payoffs, start)) as ``_chain_decay`` got them."""
    fed = []

    def recording(mean, matrix, payoffs, start):
        fed.append((matrix, payoffs, start))
        return _chain_decay(mean, matrix, payoffs, start)

    monkeypatch.setattr(processes_module, "_chain_decay", recording)
    decay = proc.ruin_decay()
    monkeypatch.undo()
    [chain] = fed
    return decay, chain


def _assert_same_chain(proc, reference, monkeypatch):
    decay, chain = _fed_to_the_search(proc, monkeypatch)
    for got, expected in zip(chain, reference):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert decay == _chain_decay(proc.mean(), *reference)


def test_bundled_iid_and_markov_specs_feed_the_search_the_same_chain(corpus, monkeypatch):
    for name, proc in corpus.items():
        kind = type(proc.spec).__name__
        if kind in ("IidDiscrete", "MarkovChain"):
            reference = _iid_chain(proc) if kind == "IidDiscrete" else _markov_chain(proc)
            _assert_same_chain(proc, reference, monkeypatch)


def _merged_table(values, probs):
    """The value table a chain on (state, value) pairs sees: equal values
    merged, values of probability 0 dropped, in order of first appearance."""
    merged: dict = {}
    for v, p in zip(values, probs):
        if p:
            merged[v] = merged.get(v, 0) + p
    return tuple(merged), tuple(merged.values())


def test_random_iid_and_markov_specs_feed_the_search_the_same_chain(monkeypatch):
    rs = np.random.default_rng(17)
    counts = {"markov": 0, "iid table as is": 0, "iid table merged": 0, "bound": 0}
    while min(counts.values()) < 150:
        k = int(rs.integers(1, 7))
        payoffs = tuple(int(v) for v in rs.integers(-4, 5, k))
        if rs.random() < 0.5:
            probs = _random_law(rs, k)
            proc = make_process(IidDiscrete(payoffs, probs))
            table = _merged_table(payoffs, probs)
            if table == (payoffs, probs):
                counts["iid table as is"] += 1
                _assert_same_chain(proc, _iid_chain(proc), monkeypatch)
            else:
                # the chain has one state per distinct value of positive
                # probability; with repeated values only, the walk is the
                # same and so is its bound, to rounding (at mean 0 only
                # float noise gives a bound)
                counts["iid table merged"] += 1
                merged = make_process(IidDiscrete(*table))
                _assert_same_chain(proc, _iid_chain(merged), monkeypatch)
                if all(probs) and proc.exact_mean() > 0:
                    old = _chain_decay(proc.mean(), *_iid_chain(proc))
                    np.testing.assert_allclose(proc.ruin_decay(), old, rtol=1e-12)
        else:
            try:
                proc = make_process(MarkovChain(_random_stochastic_rows(rs, k), payoffs))
            except NoStationaryDistribution:  # several closed classes, or a transient state
                continue
            counts["markov"] += 1
            _assert_same_chain(proc, _markov_chain(proc), monkeypatch)
        decay = proc.ruin_decay()
        counts["bound"] += decay is not None and 0.0 < decay[0] < 1.0
    assert sum(counts.values()) - counts["bound"] >= 500, counts


# a moving average of positive mean over two innovation tables
MA_P06 = MovingAverage(
    coefficients=(F(1, 2), F(1, 4), F(1, 4)),
    innovation=IidDiscrete(values=(1, -1), probs=(F(3, 5), F(2, 5))),
)
MA_TWO_POINT = MovingAverage(
    coefficients=(F(1), F(1, 2)),
    innovation=IidDiscrete(values=(2, -1), probs=(F(1, 2), F(1, 2))),
)


@pytest.mark.parametrize("spec", [MA_P06, MA_TWO_POINT], ids=["p06", "two_point"])
def test_moving_average_bound_dominates_the_exact_ruin_probability(spec):
    proc = make_process(spec)
    rho, c = proc.ruin_decay()
    assert 0.0 < rho < 1.0
    n = 64
    [(reads, den, _)] = exact_fold(proc, n, 0, lambda s, x: s + x, read=lambda s: s <= 0)
    for k, weight in enumerate(reads, 1):
        assert F(weight, den) <= c * rho**k


def test_moving_averages_without_positive_drift_or_past_the_cap_get_no_bound(corpus):
    assert corpus["moving_average"].ruin_decay() is None  # mean 0
    long_filter = MovingAverage(coefficients=(1,) * 21, innovation=MA_P06.innovation)
    assert make_process(long_filter).ruin_decay() is None  # 2^22 branches
