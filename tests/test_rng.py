"""Counter-based generator: scalar/vector agreement, determinism, range,
and the compiled and numpy paths agreeing bit for bit."""

from __future__ import annotations

import math
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtri

from masstransport import rng as rng_module
from masstransport.rng import (
    GOLDEN,
    MASK,
    gaussian_block,
    index_position,
    index_positions,
    mix64,
    mix64_array,
    trial_key,
    uniform,
    uniform_block,
    uniform_column,
)

U64 = st.integers(min_value=0, max_value=MASK)

NO_KERNEL = "no compiled uniform kernel loaded here (no cc, or its library did not load)"


@pytest.fixture(params=["compiled", "numpy"])
def uniform_path(request, monkeypatch):
    """Each path of uniform_block and uniform_column in turn."""
    if request.param == "numpy":
        monkeypatch.setattr(rng_module, "_kernel", None)
    elif rng_module._kernel is None:
        pytest.skip(NO_KERNEL)
    assert rng_module.uniform_path() == request.param
    return request.param


@given(U64)
def test_mix64_stays_in_range(x):
    y = mix64(x)
    assert 0 <= y <= MASK
    assert mix64(x) == y


@given(st.lists(U64, min_size=1, max_size=64))
def test_mix64_array_matches_scalar(xs):
    arr = np.array(xs, dtype=np.uint64)
    out = mix64_array(arr)
    assert out.dtype == np.uint64
    for x, y in zip(xs, out):
        assert mix64(x) == int(y)


def test_mix64_avalanche_on_adjacent_inputs():
    # Consecutive counters must map to words differing in many bits.
    for x in (0, 1, 12345, MASK - 1):
        diff = mix64(x) ^ mix64(x + 1 & MASK)
        assert bin(diff).count("1") >= 16


@given(
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
)
def test_scalar_uniform_is_deterministic_and_open(seed, stream, trial, pos):
    u = uniform(seed, stream, trial, index_position(pos))
    assert 0.0 < u < 1.0
    assert uniform(seed, stream, trial, index_position(pos)) == u


def test_block_matches_scalar_bit_for_bit():
    seed, stream = 42, 3
    trials = np.arange(17, dtype=np.uint64)
    positions = index_positions(-4, 7)
    block = uniform_block(seed, stream, trials, positions)
    assert block.shape == (17, 12)
    for t in range(17):
        for j, k in enumerate(range(-4, 8)):
            assert block[t, j] == uniform(seed, stream, t, index_position(k))


def test_column_matches_block_column():
    seed, stream = 9, 0
    trials = np.arange(64, dtype=np.uint64)
    positions = index_positions(0, 5)
    block = uniform_block(seed, stream, trials, positions)
    col = uniform_column(seed, stream, trials, index_position(4))
    np.testing.assert_array_equal(col, block[:, 4])


def test_index_positions_match_scalar_mapping():
    pos = index_positions(-3, 2)
    for j, k in enumerate(range(-3, 3)):
        assert int(pos[j]) == index_position(k)


def test_streams_trials_positions_all_decorrelate():
    base = uniform_block(0, 0, np.arange(8, dtype=np.uint64), index_positions(0, 8))
    other_stream = uniform_block(0, 1, np.arange(8, dtype=np.uint64), index_positions(0, 8))
    other_seed = uniform_block(1, 0, np.arange(8, dtype=np.uint64), index_positions(0, 8))
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)
    assert len({float(u) for u in base.ravel()}) == base.size


def test_uniform_moments():
    block = uniform_block(7, 0, np.arange(200, dtype=np.uint64), index_positions(0, 500))
    n = block.size
    mean = block.mean()
    var = block.var()
    assert abs(mean - 0.5) < 4.0 * np.sqrt(1.0 / 12.0 / n)
    assert abs(var - 1.0 / 12.0) < 4.0 * np.sqrt(1.0 / 180.0 / n)


def test_negative_positions_are_distinct_from_positive():
    trials = np.arange(4, dtype=np.uint64)
    left = uniform_block(0, 5, trials, index_positions(-8, -1))
    right = uniform_block(0, 5, trials, index_positions(1, 8))
    assert not np.array_equal(left, right)


@pytest.mark.parametrize("k", [-(1 << 40), -1, 0, 1, 1 << 40])
def test_index_position_wraps_to_uint64(k):
    assert index_position(k) == k & MASK


def _unmix64(y: int) -> int:
    """Inverse of mix64: undo each xor-shift and multiply in reverse order."""

    def unshift(x: int, shift: int) -> int:
        out = x
        for _ in range(64 // shift + 1):
            out = x ^ (out >> shift)
        return out

    y = unshift(y, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    y = unshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unshift(y, 30)


def _position_of_word(seed: int, stream: int, trial: int, word: int) -> int:
    """The position whose draw for (seed, stream, trial) is the given word."""
    tkey = trial_key(seed, stream, trial)
    return ((_unmix64(word) - tkey) * pow(GOLDEN, -1, 1 << 64)) & MASK


def test_top_word_maps_below_one_in_every_path(uniform_path):
    # (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0; that one word must map to
    # the largest double below 1 instead, and no other word may move
    seed, stream, trial = 5, 2, 11
    below_one = np.nextafter(1.0, 0.0)
    words = {
        MASK: below_one,
        ((1 << 53) - 1) << 11: below_one,
        ((1 << 53) - 2) << 11: ((1 << 53) - 2 + 0.5) / (1 << 53),
        1 << 11: 1.5 / (1 << 53),
        0: 0.5 / (1 << 53),
    }
    trials = np.array([trial], dtype=np.uint64)
    for word, expected in words.items():
        pos = _position_of_word(seed, stream, trial, word)
        assert mix64((trial_key(seed, stream, trial) + pos * GOLDEN) & MASK) == word
        assert uniform(seed, stream, trial, pos) == expected
        block = uniform_block(seed, stream, trials, np.array([pos, 0, pos], dtype=np.uint64))
        assert block[0, 0] == block[0, 2] == expected
        assert uniform_column(seed, stream, trials, pos)[0] == expected


@given(st.lists(U64, min_size=1, max_size=64))
def test_words_below_the_top_keep_their_formula(words):
    unmixed = np.array([_unmix64(w) for w in words], dtype=np.uint64)
    units = rng_module._mixed_to_unit(unmixed, np.empty(len(words)))
    for word, u in zip(words, units):
        if word >> 11 != (1 << 53) - 1:
            assert u == ((word >> 11) + 0.5) / (1 << 53) == rng_module._word_to_unit(word)


@pytest.mark.skipif(rng_module._kernel is None, reason=NO_KERNEL)
@given(U64, U64, st.lists(U64, min_size=1, max_size=48), st.lists(U64, min_size=1, max_size=48))
@example(3, 1, [7], [0, 1, MASK])  # one trial
@example(3, 1, [0, 1, MASK], [7])  # one position
@example(3, 1, [7], [MASK])
def test_the_kernel_matches_the_numpy_path_bit_for_bit(seed, stream, trials, positions):
    # more trials than positions makes a trial-contiguous tile, else a
    # position-contiguous one: both orders come up
    trials, positions = np.array(trials, np.uint64), np.array(positions, np.uint64)
    block = uniform_block(seed, stream, trials, positions)
    column = uniform_column(seed, stream, trials, int(positions[-1]))
    with mock.patch.object(rng_module, "_kernel", None):
        reference = uniform_block(seed, stream, trials, positions)
        reference_column = uniform_column(seed, stream, trials, int(positions[-1]))
    assert block.strides == reference.strides
    np.testing.assert_array_equal(block.view(np.uint64), reference.view(np.uint64))
    np.testing.assert_array_equal(column.view(np.uint64), reference_column.view(np.uint64))


@pytest.mark.skipif(rng_module._kernel is None, reason=NO_KERNEL)
@given(
    U64, U64, U64, st.integers(1, 600), st.integers(-(1 << 62), 1 << 62), st.integers(1, 600),
    st.floats(-1e6, 1e6), st.floats(1e-6, 1e6),
)
@example(3, 1, 7, 1, -5, 600, 0.0, 1.0)  # one trial
@example(3, 1, 7, 600, -5, 1, 0.0, 1.0)  # one position
@example(3, 1, MASK, 1, -1, 1, -2.5, 0.25)
def test_the_gaussian_kernel_matches_scipy_ndtri_bit_for_bit(
    seed, stream, first, trials, lo, positions, mean, stddev
):
    # runs of up to 600 draws cross the kernel's passes of 256, and both
    # tile orders come up
    trials = (np.arange(trials, dtype=np.uint64) + np.uint64(first)) & np.uint64(MASK)
    positions = index_positions(lo, lo + positions - 1)
    block = gaussian_block(seed, stream, trials, positions, mean, stddev)
    with mock.patch.object(rng_module, "_kernel", None):
        u = uniform_block(seed, stream, trials, positions)
        fallback = gaussian_block(seed, stream, trials, positions, mean, stddev)
    reference = ndtri(u)
    reference *= stddev
    reference += mean
    assert block.strides == u.strides == fallback.strides
    np.testing.assert_array_equal(block.view(np.uint64), reference.view(np.uint64))
    np.testing.assert_array_equal(fallback.view(np.uint64), reference.view(np.uint64))


def _lattice_words(edge: float, count: int) -> list[int]:
    """The ``2 * count`` words whose uniforms lie nearest ``edge``."""
    w = int(edge * (1 << 53))
    return [max(0, min(k, (1 << 53) - 1)) << 11 for k in range(w - count, w + count)]


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_the_gaussian_draw_of_the_extreme_words_and_the_branch_edges(path, monkeypatch):
    # ndtri's branches meet at e^-2 and 1 - e^-2 (central part and tails)
    # and at e^-32 (the two tail fits), and the lattice's smallest and
    # largest words are its largest |ndtri(u)|: GaussianProcess.magnitude
    # rests on |ndtri(u)| < 8.3 on the lattice
    if path == "numpy":
        monkeypatch.setattr(rng_module, "_kernel", None)
    elif rng_module._kernel is None:
        pytest.skip(NO_KERNEL)
    edges = (0.0, math.exp(-32), math.exp(-2), 0.5, 1 - math.exp(-2), 1 - math.exp(-32), 1.0)
    words = sorted({w for edge in edges for w in _lattice_words(edge, 1000)})
    seed, stream, trial = 8, 3, 21
    positions = np.array(
        [_position_of_word(seed, stream, trial, w) for w in words], dtype=np.uint64
    )
    trials = np.array([trial], dtype=np.uint64)
    u = np.array([((w >> 11) + 0.5) / (1 << 53) for w in words])
    u[-1] = np.nextafter(1.0, 0.0)  # the top word's uniform
    np.testing.assert_array_equal(uniform_block(seed, stream, trials, positions)[0], u)
    z = gaussian_block(seed, stream, trials, positions, 0.0, 1.0)[0]
    np.testing.assert_array_equal(z.view(np.uint64), ndtri(u).view(np.uint64))
    assert np.abs(z).max() < 8.3
    shifted = gaussian_block(seed, stream, trials, positions, -1.25, 3.5)[0]
    reference = ndtri(u) * 3.5
    reference += -1.25
    np.testing.assert_array_equal(shifted.view(np.uint64), reference.view(np.uint64))


def test_the_loader_falls_back_to_numpy_without_raising(tmp_path, monkeypatch):
    # a read-only mode does not stop root, so the directory that takes no
    # files is one whose path runs through a regular file
    (tmp_path / "file").write_text("")
    assert rng_module._load_kernel(tmp_path / "file" / "_build") is None
    # a library at the keyed name that does not load, and no compiler on
    # the PATH to build a missing one
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / rng_module._library_name()).write_bytes(b"not a shared object")
    monkeypatch.setenv("PATH", "")
    assert rng_module._load_kernel(broken) is None
    assert rng_module._load_kernel(tmp_path / "fresh") is None
    assert list((tmp_path / "fresh").iterdir()) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on the PATH")
def test_the_loader_builds_a_missing_library_once(tmp_path):
    kernel = rng_module._load_kernel(tmp_path)
    library = tmp_path / rng_module._library_name()
    assert kernel is not None and list(tmp_path.iterdir()) == [library]
    built = library.stat().st_mtime_ns
    assert rng_module._load_kernel(tmp_path) is not None
    assert library.stat().st_mtime_ns == built
    trials, positions = np.arange(5, dtype=np.uint64), index_positions(-2, 2)
    with mock.patch.object(rng_module, "_kernel", kernel):
        block = uniform_block(1, 2, trials, positions)
        gaussian = gaussian_block(1, 2, trials, positions, 0.5, 2.0)
    with mock.patch.object(rng_module, "_kernel", None):
        np.testing.assert_array_equal(block, uniform_block(1, 2, trials, positions))
        np.testing.assert_array_equal(gaussian, gaussian_block(1, 2, trials, positions, 0.5, 2.0))
