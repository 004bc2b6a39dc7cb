"""Tile layout: the same bits whether trials or positions are contiguous.

A tile of more trials than positions is stored trial-contiguous, any
other position-contiguous (``scratch.tile_order``), and its running scans
step in that order (``scratch.scan``).  Shrinking ``CHUNK_TRIALS`` below
the window's length forces the other order, and setting it to the length
hits the boundary between the two, so every Monte Carlo lane must print
the same bytes under all three settings.
"""

from __future__ import annotations

import numpy as np
import pytest

from masstransport import (
    IidDiscrete,
    estimate_dip_probability,
    make_process,
    mc_identity,
    mc_maximal_ergodic,
    mc_survival,
    trajectory_batch,
)
from masstransport import verify as verify_module
from masstransport.processes import _count_cuts
from masstransport.scratch import Scratch, order_of, scan, tile_order

from test_exact_oracle import THREE_STATE_CHAIN

# tables longer than the scan limit of processes._count_cuts take the
# binary search
LONG_TABLE = IidDiscrete(values=tuple(range(-10, 14)), probs=(1 / 32,) * 16 + (1 / 16,) * 8)


def _bits(value) -> bytes:
    """Every float of a result, in order, as bytes."""
    floats = []

    def walk(x):
        if isinstance(x, (float, int, bool, np.floating, np.integer)):
            floats.append(float(x))
        elif isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
        elif not isinstance(x, str):
            for y in vars(x).values():
                walk(y)

    walk(value)
    return np.array(floats).tobytes()


def _under_each_layout(monkeypatch, positions: int, width: int, trials: int, run) -> list[bytes]:
    """``run()`` with chunks that are trial-contiguous, position-contiguous
    and on the boundary (as many trials as positions)."""
    out = []
    for chunk, order in ((4096, "F"), (max(1, positions // 3), "C"), (positions, "C")):
        monkeypatch.setattr(verify_module, "CHUNK_TRIALS", chunk)
        first = verify_module._chunk_arrays(trials, width)[0]
        assert tile_order(len(first), positions) == order
        out.append(_bits(run()))
    return out


@pytest.fixture(scope="module")
def kinds(corpus):
    return {
        **corpus,
        "three_state_chain": make_process(THREE_STATE_CHAIN),
        "long_table": make_process(LONG_TABLE),
    }


@pytest.mark.parametrize(
    "name", ["p06_walk", "two_point_chain", "moving_average", "gaussian_drift", "three_state_chain"]
)
def test_identity_does_not_depend_on_the_layout(kinds, monkeypatch, name):
    proc = kinds[name]
    runs = _under_each_layout(
        monkeypatch, 8, 16, 700, lambda: mc_identity(proc, 8, 700, seed=3, threads=2)
    )
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize(
    "name", ["rotation", "gaussian_drift", "markov_drift", "mixture", "long_table", "three_state_chain"]
)
def test_maximal_and_survival_do_not_depend_on_the_layout(kinds, monkeypatch, name):
    proc = kinds[name]

    def run():
        return (
            mc_maximal_ergodic(proc, 24, 900, seed=2),
            mc_survival(proc, 24, 900, seed=2, threads=2),
        )

    runs = _under_each_layout(monkeypatch, 24, 24, 900, run)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name", ["gaussian_drift", "mixture", "moving_average", "rotation"])
def test_trajectories_and_dips_do_not_depend_on_the_layout(kinds, monkeypatch, name):
    proc = kinds[name]

    def run():
        return (
            trajectory_batch(proc, 100, 400, seed=5, threads=2),
            estimate_dip_probability(proc, 0.05, 100, 400, seed=5, min_start=8),
            estimate_dip_probability(proc, 0.05, 100, 400, seed=5, min_start=8, side="above"),
        )

    runs = _under_each_layout(monkeypatch, 100, 100, 400, run)
    assert runs[0] == runs[1] == runs[2]


def _awkward(shape, dtype) -> np.ndarray:
    """Values with ties, signed zeros and NaNs for float dtypes."""
    rs = np.random.default_rng(7)
    if dtype == bool:
        return rs.random(shape) < 0.5
    if dtype == np.intp:
        return rs.integers(-3, 4, shape).astype(np.intp)
    a = rs.choice(np.array([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]), shape)
    a = np.where(rs.random(shape) < 0.3, rs.standard_normal(shape), a)
    a[1, 0] = a[4, -1] = np.nan
    return a


@pytest.mark.parametrize(
    "ufunc, dtype",
    [
        (np.add, np.float64),
        (np.minimum, np.float64),
        (np.maximum, np.float64),
        (np.maximum, np.intp),
        (np.logical_xor, bool),
    ],
)
@pytest.mark.parametrize("shape", [(40, 7), (7, 40), (9, 9), (5, 1)])
def test_scan_equals_accumulate_in_both_orders(ufunc, dtype, shape):
    a = _awkward(shape, dtype)
    expected = ufunc.accumulate(a, axis=1)
    tile = Scratch().tile()
    for order in ("C", "F"):
        src = tile.empty(shape, dtype, order)
        src[...] = a
        if min(shape) > 1:
            assert order_of(src) == order
        out = scan(ufunc, src, tile.empty(shape, dtype, order))
        assert out.tobytes() == expected.tobytes()
        # reversed views, and the scan written over its own input
        assert scan(ufunc, src[:, ::-1], np.empty(shape, dtype, order)).tobytes() == (
            ufunc.accumulate(a[:, ::-1], axis=1).tobytes()
        )
        assert scan(ufunc, src, src).tobytes() == expected.tobytes()


@pytest.mark.parametrize("cuts", [np.array([0.25, 0.5, 0.75]), np.cumsum(np.full(39, 1 / 40))])
def test_cut_counts_keep_the_layout(cuts):
    # the table scan and the binary search both return counts in x's order
    x = np.random.default_rng(4).random((300, 20))
    x[:3, :3] = cuts[:3]
    for order in ("C", "F"):
        for side in ("left", "right"):
            count = _count_cuts(cuts, np.asarray(x, order=order), side)
            assert order_of(count) == order
            np.testing.assert_array_equal(count, np.searchsorted(cuts, x, side=side))
