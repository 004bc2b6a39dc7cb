"""Records, ladder epochs, mass rows: frozen hand values and properties.

The hand values were worked out on paper from the definitions before the
implementation existed; the property lanes then check the structural
identities, exactly on rational windows and at tolerance on float ones.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masstransport import (
    PathWindow,
    close,
    first_nonpositive,
    ladder_epochs_before_zero,
    mass_received_at_zero,
    mass_row,
    received_mass_terms,
    records_after,
    sent_mass_terms,
    total_sent,
)
from masstransport.scratch import Scratch

F = Fraction


def window(lo, values):
    return PathWindow.from_values(lo, values)


# ---------------------------------------------------------------------------
# frozen hand-worked values
# ---------------------------------------------------------------------------


def test_hand_case_two_up_two_down():
    # X_1..X_3 = 2, -1, -1: sums 0, 2, 1, 0.
    w = window(0, [F(2), F(-1), F(-1)])
    assert w.sums == (0, 2, 1, 0)
    assert records_after(w, 0) == (1, 2, 3)
    row = mass_row(w, 0)
    assert row == {2: 1, 3: 1}
    assert sum(row.values(), 0) == 2 == total_sent(w, 0)
    assert first_nonpositive(w) == 3


def test_hand_case_truncated_window_withholds_tail():
    w = window(0, [F(2), F(-1)])
    assert records_after(w, 0) == (1, 2)
    row = mass_row(w, 0)
    assert row == {2: 1}
    assert total_sent(w, 0) == 1


def test_hand_case_rising_path_sends_nothing_yet():
    # X_1, X_2 = 2, 5: the minimum to the right of 1 never drops back.
    w = window(0, [F(2), F(5)])
    assert records_after(w, 0) == (1,)
    assert mass_row(w, 0) == {}
    assert total_sent(w, 0) == 0


def test_hand_case_nonpositive_first_step_sends_nothing():
    w = window(0, [F(0), F(3)])
    assert mass_row(w, 0) == {}
    assert total_sent(w, 0) == 0


def test_hand_case_tied_record_gets_zero_mass():
    # sums 0, 1, 1: the tie at m = 2 is a record but carries no mass.
    w = window(0, [F(1), F(0)])
    assert records_after(w, 0) == (1, 2)
    assert mass_row(w, 0) == {2: 0}
    assert total_sent(w, 0) == 0


def test_hand_case_received_single_epoch():
    # X_{-1}, X_0 = 1, -2: sums S_{-2}, S_{-1}, S_0 = 1, 2, 0.
    w = window(-2, [F(1), F(-2)])
    assert w.sums == (1, 2, 0)
    assert ladder_epochs_before_zero(w) == (-1, -2)
    assert mass_received_at_zero(w) == {-2: 1}


def test_hand_case_positive_origin_receives_nothing():
    w = window(-2, [F(1), F(2)])
    assert mass_received_at_zero(w) == {}


def test_hand_case_tied_left_sum_is_not_an_epoch():
    # S_{-2} = S_{-1} = 1: the strict inequality excludes -2.
    w = window(-2, [F(0), F(-1)])
    assert ladder_epochs_before_zero(w) == (-1,)
    assert mass_received_at_zero(w) == {}


def test_hand_case_deep_left_minimum():
    # X_{-1}, X_0 = 5, -1: sums -4, 1, 0; epoch -2 ships 1.
    w = window(-2, [F(5), F(-1)])
    assert w.sums == (-4, 1, 0)
    assert ladder_epochs_before_zero(w) == (-1, -2)
    assert mass_received_at_zero(w) == {-2: 1}


def test_hand_case_monotone_descent_left():
    # Rising sums to the left: every m is an epoch, but the received
    # amounts stop once the running maximum with zero saturates.
    w = window(-3, [F(-1), F(-1), F(-1)])
    assert w.sums == (3, 2, 1, 0)
    assert ladder_epochs_before_zero(w) == (-1,)
    assert mass_received_at_zero(w) == {}


def test_first_nonpositive_cases():
    assert first_nonpositive(window(0, [F(1), F(1)])) is None
    assert first_nonpositive(window(0, [F(-1), F(5)])) == 1
    assert first_nonpositive(window(0, [F(2), F(-1), F(-1)])) == 3


def test_sender_bounds_are_checked():
    w = window(0, [F(1)])
    with pytest.raises(IndexError):
        mass_row(w, 1)
    with pytest.raises(IndexError):
        records_after(w, -1)
    with pytest.raises(IndexError):
        ladder_epochs_before_zero(window(0, [F(1)]))


# ---------------------------------------------------------------------------
# property lanes
# ---------------------------------------------------------------------------


@st.composite
def rational_windows(draw, min_len=2, max_len=10, max_lo=0):
    length = draw(st.integers(min_value=min_len, max_value=max_len))
    lo = draw(st.integers(min_value=-length, max_value=max(-length, max_lo)))
    values = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=length,
            max_size=length,
        )
    )
    return PathWindow.from_values(lo, values)


@st.composite
def float_windows(draw, min_len=2, max_len=10, max_lo=0):
    length = draw(st.integers(min_value=min_len, max_value=max_len))
    lo = draw(st.integers(min_value=-length, max_value=max(-length, max_lo)))
    values = draw(
        st.lists(
            st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    return PathWindow.from_values(lo, values)


@given(rational_windows())
def test_records_structure(w):
    for n in range(w.lo, w.hi):
        records = records_after(w, n)
        assert records[0] == n + 1
        assert all(a < b for a, b in zip(records, records[1:]))
        # sums along the record subsequence never increase
        vals = [w.s(m) for m in records]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


@given(rational_windows())
def test_mass_rows_are_nonnegative_and_live_on_records(w):
    for n in range(w.lo, w.hi):
        row = mass_row(w, n)
        records = records_after(w, n)
        assert set(row) <= set(records[1:])
        assert all(v >= 0 for v in row.values())


@given(rational_windows())
def test_row_total_matches_closed_form_exactly(w):
    for n in range(w.lo, w.hi):
        assert sum(mass_row(w, n).values(), 0) == total_sent(w, n)


@given(rational_windows())
def test_sent_total_is_capped_by_the_increment(w):
    for n in range(w.lo, w.hi):
        x = w.x(n + 1)
        if x > 0:
            assert 0 <= total_sent(w, n) <= x
        else:
            assert total_sent(w, n) == 0


@given(rational_windows())
def test_visible_return_sends_the_whole_increment(w):
    # Once the window shows a sum at or below S_n after n, nothing is
    # withheld: the sender ships exactly X_{n+1}.
    for n in range(w.lo, w.hi):
        x = w.x(n + 1)
        if x > 0 and min(w.s(m) for m in range(n + 1, w.hi + 1)) <= w.s(n):
            assert total_sent(w, n) == x


@given(rational_windows(max_lo=-1))
def test_receiver_route_equals_sender_route_exactly(w):
    # The case analysis behind the received-mass closed form: for every
    # sender m < 0, the amount the origin receives from m equals the
    # entry at 0 of m's own mass row.
    received = mass_received_at_zero(w)
    for m in range(w.lo, 0):
        assert received.get(m, 0) == mass_row(w, m).get(0, 0)


@given(rational_windows(max_lo=-1))
def test_received_total_closed_form(w):
    got = sum(mass_received_at_zero(w).values(), 0)
    if w.x(0) > 0:
        assert got == 0
    else:
        floor = min(w.s(m) for m in range(w.lo, 0))
        assert got == -w.x(0) - max(floor, 0)


@given(rational_windows(min_len=3))
def test_sent_mass_is_local_in_the_horizon(w):
    # Masses at records the shorter window can see do not change when
    # the window grows to the right.
    for hi2 in range(1, w.hi):
        short = PathWindow.from_values(w.lo, w.values[: hi2 - w.lo])
        for n in range(w.lo, hi2):
            srow = mass_row(short, n)
            lrow = mass_row(w, n)
            for m in srow:
                assert srow.get(m, 0) == lrow.get(m, 0)


@given(rational_windows(min_len=3, max_lo=-2))
def test_received_mass_is_local_in_the_left_edge(w):
    # Whether m is an epoch depends only on sums to its right, and the
    # predecessor epoch sits closer to -1, so every entry the trimmed
    # window shows must agree with the full window; trimming can only
    # drop epochs, never change them.
    full = mass_received_at_zero(w)
    for lo2 in range(w.lo + 1, 0):
        short = PathWindow.from_values(lo2, w.values[lo2 - w.lo :])
        trimmed = mass_received_at_zero(short)
        for m in trimmed:
            assert trimmed[m] == full.get(m, 0)


@given(float_windows(max_lo=-1))
@settings(max_examples=60)
def test_float_lane_matches_at_tolerance(w):
    for n in range(w.lo, w.hi):
        assert close(sum(mass_row(w, n).values(), 0), total_sent(w, n))
    received = mass_received_at_zero(w)
    for m in range(w.lo, 0):
        assert close(received.get(m, 0.0), mass_row(w, m).get(0, 0))


# ---------------------------------------------------------------------------
# vectorized mass profiles against the scalar route
# ---------------------------------------------------------------------------


def _random_sums(trials, horizon, seed):
    rng = np.random.default_rng(seed)
    steps = rng.choice([-1.0, 1.0, 2.0, -0.5], size=(trials, horizon))
    sums = np.zeros((trials, horizon + 1))
    sums[:, 1:] = np.cumsum(steps, axis=1)
    return sums


def test_sent_mass_terms_match_scalar_rows():
    sums = _random_sums(200, 9, seed=1)
    terms = sent_mass_terms(sums)
    assert terms.shape == (200, 9)
    for t in range(200):
        w = PathWindow.from_values(0, list(np.diff(sums[t])))
        row = mass_row(w, 0)
        assert terms[t, 0] == 0.0
        for m in range(1, 10):
            assert close(terms[t, m - 1], row.get(m, 0))


def test_received_mass_terms_match_scalar_rows():
    sums = _random_sums(200, 9, seed=2)
    # reinterpret columns as S_{-9}..S_0 by re-anchoring at the last one
    sums = sums - sums[:, -1:]
    terms = received_mass_terms(sums)
    assert terms.shape == (200, 9)
    for t in range(200):
        w = PathWindow.from_values(-9, list(np.diff(sums[t])))
        received = mass_received_at_zero(w)
        assert terms[t, 0] == 0.0
        for n in range(1, 10):
            assert close(terms[t, n - 1], received.get(-n, 0.0))


def test_mass_terms_in_reused_scratch_equal_fresh_ones():
    # consecutive tiles of different shapes reuse the same slots; each
    # tile's two results must equal fresh ones bit for bit, and the second
    # call must not overwrite the first one's result
    rng = np.random.default_rng(5)
    scratch = Scratch()
    tiles = ((200, 9, False), (37, 1, False), (500, 16, True), (3, 1, True))
    for trials, horizon, gaussian in tiles:
        if gaussian:
            sums = np.zeros((trials, horizon + 1))
            sums[:, 1:] = np.cumsum(rng.standard_normal((trials, horizon)), axis=1)
        else:
            sums = _random_sums(trials, horizon, seed=horizon)
        left = sums - sums[:, -1:]
        tile = scratch.tile()
        sent = sent_mass_terms(sums, tile)
        received = received_mass_terms(left, tile)
        assert sent.tobytes() == sent_mass_terms(sums).tobytes()
        assert received.tobytes() == received_mass_terms(left).tobytes()


def test_vectorized_rejects_flat_matrices():
    with pytest.raises(ValueError):
        sent_mass_terms(np.zeros((4, 1)))
    with pytest.raises(ValueError):
        received_mass_terms(np.zeros(5))
