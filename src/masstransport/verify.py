"""Checking the transport identity, the maximal inequality and survival.

Every check exists in two independent lanes wherever the process allows:

* exact: fold the step law forward in integers (``processes.exact_fold``),
  keeping (state, U) for Lindley's recursion on each side of the identity
  and (S_n, X_1) of the surviving paths for the rest: Fractions, no
  tolerances;
* Monte Carlo: estimate the same quantity from seeded sampling and
  report a confidence interval.

Both identity lanes return one (E[M(0, n)], E[M(-n, 0)]) pair per n:
Fractions that must be equal, or EstimateCIs whose intervals must
overlap (``ci_overlap``).

The Monte Carlo lanes are deterministic given (spec, seed, trials): work
is cut into fixed-size chunks of trials whatever the thread count, each
chunk is a pure function of its trial indices and fills its own rows of
one per-trial array, and all reductions run on those full arrays.  The
identity fills one side at a time, one contiguous row of all trials for
each n >= 2, and reduces it before the other side refills the same rows.
Running with 1 or 16 threads produces the same bytes.

A chunk is one tile: as many whole trials as fit about ``TILE_BYTES`` of
float64 increments.  Each tile is sampled into memory its thread reuses
from tile to tile and reduced to per-trial values while it is still in
cache.  A tile of more trials than positions (every short horizon) is
stored trial-contiguous, and its running sums and minima step one
position at a time over all its trials; a tile of a few long trials is
stored trial by trial (see :mod:`masstransport.scratch`).  Every draw is
keyed by its absolute (trial, position) and every per-trial value is
reduced along its own positions in order, so neither the tile size nor
the layout changes any output.

Survival and the maximal inequality stop sampling a trial once it is
ruined (``_ruin``): a chunk is one tile of prefixes, the first eighth of
every trial's row, and only the trials no prefix sum has ruined are
sampled again as whole rows, a tile of them at a time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
import math
import os

import numpy as np

from .errors import InvalidSpec
from .processes import DEFAULT_ATOM_CAP, Process, exact_fold, reversed_law
from .scratch import Scratch, check_memory, order_of, scan
from .transport import received_mass_terms, sent_mass_terms

# perfbench/spans.py patches these names here; nothing in this module calls them
from .processes import exact_window_distribution  # noqa: F401
from .transport import mass_received_at_zero, mass_row  # noqa: F401

# default confidence level: two-sided 99%
Z_DEFAULT = 2.576

# sign checks pass when the estimate exceeds zero by at most this many
# standard errors; exact-vs-MC agreement is gated at AGREEMENT_SIGMAS
SIGN_SLACK = 3.0
AGREEMENT_SIGMAS = 4.0

# trials per work unit; a deterministic function of the window width (never
# of the thread count), capped so a chunk's sample block is one tile of
# about TILE_BYTES.  A tile and the scratch arrays behind it then stay in
# cache; smaller tiles pay more per-tile call overhead, larger ones spill
# out of L2.  512 KiB was the fastest of 256 KiB, 512 KiB and 1 MiB for
# criterion 6 on the 2-core Xeon of CHANGES.md.  The chunk's shape also
# picks the tile's memory order (``scratch.tile_order``): short windows
# give CHUNK_TRIALS trials of a few positions, stored trial-contiguous.
# Chunking only groups trials; every draw is keyed by its absolute trial
# index, so results cannot depend on these numbers.
CHUNK_TRIALS = 4096
TILE_BYTES = 512 << 10

# survival and the maximal inequality sample positions 1..n_max // RUIN_SCREEN
# of every trial before drawing whole rows for the trials that prefix leaves
# unruined (``_ruin``).  A spec where nearly every trial survives pays the
# prefix on top of its whole rows: at 8, an eighth more work at most.
RUIN_SCREEN = 8


@dataclass(frozen=True)
class EstimateCI:
    """A Monte Carlo mean with its normal-approximation interval."""

    mean: float
    std_error: float
    trials: int
    z: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, z: float = Z_DEFAULT, scratch: np.ndarray | None = None
    ) -> "EstimateCI":
        """Mean and standard error of float64 ``samples``, equal bit for bit
        to ``np.mean`` and ``np.std(ddof=1) / sqrt(n)``.

        It takes np.std's steps with the same ufuncs in the same order, but
        sums the samples once for both.  The deviations go into ``scratch``,
        a float64 array as long as ``samples``, when one is given; that may
        be ``samples`` itself, which is read only before the deviations.
        """
        n = len(samples)
        if n < 2:
            raise ValueError("need at least 2 samples for a standard error")
        mean = float(np.add.reduce(samples)) / n
        dev = np.subtract(samples, mean, out=scratch)
        dev *= dev
        std_error = math.sqrt(float(np.add.reduce(dev)) / (n - 1)) / math.sqrt(n)
        return cls(mean, std_error, n, z, mean - z * std_error, mean + z * std_error)

    def covers(self, x: float) -> bool:
        return self.ci_low <= x <= self.ci_high


def ci_overlap(a: EstimateCI, b: EstimateCI) -> bool:
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def sign_pass(est: EstimateCI) -> bool:
    """One-sided check that the estimated mean is <= 0 up to noise."""
    return est.mean <= SIGN_SLACK * est.std_error


def agreement_pass(est: EstimateCI, target: float) -> bool:
    """Two-sided check that an estimate is within a few sigma of a known value."""
    return abs(est.mean - target) <= AGREEMENT_SIGMAS * max(est.std_error, 1e-300)


def _chunk_size(width: int) -> int:
    """Trials of one tile of rows ``width`` increments long."""
    return max(1, min(CHUNK_TRIALS, TILE_BYTES // (8 * max(1, width))))


def _chunk_arrays(total: int, width: int) -> list[np.ndarray]:
    size = _chunk_size(width)
    return [
        np.arange(s, min(s + size, total), dtype=np.uint64)
        for s in range(0, total, size)
    ]


def _run_chunks(total: int, threads: int, worker, width: int = 1):
    """Apply worker to each fixed chunk of trial indices, in order.

    The pool never has more threads than chunks or than CPUs.
    """
    chunks = _chunk_arrays(total, width)
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunks))


def _fill_rows(step, threads: int, width: int, *outs: np.ndarray) -> None:
    """The one Monte Carlo loop: fill ``outs``, indexed by trial along
    axis 0, by tiles.

    ``step(chunk, tile)`` samples and reduces the trials in ``chunk`` in
    the scratch memory ``tile`` and returns one array per entry of outs;
    its chunk's entries are copied out before the thread's next tile
    reuses ``tile``.  An out may be a transposed view, as the identity's
    position-major terms are; a trial-contiguous part then copies into
    contiguous runs of it.
    """
    scratch = Scratch()

    def worker(chunk: np.ndarray) -> None:
        rows = slice(int(chunk[0]), int(chunk[0]) + len(chunk))
        for out, part in zip(outs, step(chunk, scratch.tile())):
            out[rows] = part

    _run_chunks(len(outs[0]), threads, worker, width)


def check_z(z: float) -> None:
    """A finite positive z; any other gives an interval that cannot fail,
    or one that always does."""
    if not (math.isfinite(z) and z > 0):
        raise InvalidSpec(f"z must be finite and positive, got {z}")


def _check_interval(trials: int, z: float) -> None:
    """An interval needs two samples and a valid z; anything else is a
    usage error, not a crash or a meaningless interval."""
    if trials < 2:
        raise InvalidSpec("need at least 2 trials")
    check_z(z)


def _estimate(
    step, trials: int, threads: int, n_max: int, width: int, z: float, field: str
) -> EstimateCI:
    """EstimateCI of the one value per trial that ``step`` returns from
    rows of n_max increments, given chunks of one tile of rows ``width``
    long; a row too large for memory is refused naming ``field``, the
    caller's name for n_max.  The per-trial values are the run's one array
    of ``trials`` floats, and their deviations overwrite them."""
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")
    _check_interval(trials, z)
    check_memory(trials, 1, n_max, field)
    samples = np.empty(trials)
    _fill_rows(lambda chunk, tile: (step(chunk, tile),), threads, width, samples)
    return EstimateCI.from_samples(samples, z, samples)


def _anchored_float_sums(block: np.ndarray, scratch: Scratch, anchor_end: bool) -> np.ndarray:
    """Partial sum matrix with a leading zero column, in ``scratch`` in the
    block's order; optionally re-anchor so the last column (the origin of a
    left window) is zero."""
    sums = scratch.empty((block.shape[0], block.shape[1] + 1), order=order_of(block))
    sums[:, 0] = 0.0
    scan(np.add, block, sums[:, 1:])
    if anchor_end:
        sums -= sums[:, -1:]
    return sums


def _min_partial_sum(block: np.ndarray) -> np.ndarray:
    """min(S_1..S_n) per row of increments; the sums overwrite the block."""
    return scan(np.add, block, block).min(axis=1)


def _screen_width(n_max: int) -> int:
    return max(1, n_max // RUIN_SCREEN)


def _ruin(
    process: Process, seed: int, chunk: np.ndarray, n_max: int, tile: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """(X_1, min(S_1..S_n_max)) for each trial of ``chunk``, except that a
    trial ruined early keeps the minimum of its prefix, which is <= 0.

    It samples positions 1.._screen_width(n_max) of every trial first.  A
    trial whose prefix sums reach <= 0 is ruined whatever follows, and one
    whose prefix minimum is NaN has a NaN minimum however long its row, so
    only the others are sampled again, as whole rows from position 1, in
    groups of at most one tile of n_max-long rows.  A prefix is the same
    numbers as the first columns of its row, for a chain too, since both
    start at lo = 0, and ``scan`` adds each row's positions in order; so
    every minimum read from a whole row is the one it always was, and a
    ruin seen in the prefix is a ruin of the whole row.

    The one row whose reading can differ from a scan of the whole row: a
    ruin in the prefix, then increments that overflow to +inf and -inf
    and turn a later sum into NaN.  The whole row's minimum is NaN, which
    hides the ruin; the prefix keeps it.  Only spec values near the float
    range do that (a Gaussian or moving average of huge values), and no
    bundled spec.
    """
    width = _screen_width(n_max)
    prefix = process.sample_block(seed, chunk, 0, width, tile)
    first = prefix[:, 0].copy()
    low = _min_partial_sum(prefix)
    if width < n_max:
        alive = np.flatnonzero(low > 0.0)
        size = _chunk_size(n_max)
        for s in range(0, len(alive), size):
            rows = alive[s : s + size]
            block = process.sample_block(seed, chunk[rows], 0, n_max, tile.tile())
            low[rows] = _min_partial_sum(block)
    return first, low


def mc_identity(
    process: Process,
    horizon: int,
    trials: int,
    seed: int,
    *,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> tuple[tuple[EstimateCI, EstimateCI], ...]:
    """Estimates of (E[M(0, n)], E[M(-n, 0)]) for n = 1..horizon.

    The left side uses windows [0, horizon] on trials 0..trials-1, the
    right side windows [-horizon, 0] on trials trials..2*trials-1, so the
    two estimates are independent and each n passes when the confidence
    intervals overlap (``ci_overlap``).

    The sides are sampled one after the other into the same buffer of
    horizon - 1 terms per trial, one row of all trials for each n >= 2,
    and every row's estimate is taken before the next side overwrites it.
    Draws are keyed by (trial, position), so which side is in memory
    changes no number.  M(0, 1) and M(-1, 0) are 0 on every path (the
    first record receives nothing), so n = 1 stores and samples nothing.
    """
    if horizon < 1:
        raise InvalidSpec("horizon must be at least 1")
    _check_interval(trials, z)
    check_memory(trials, horizon - 1, horizon, "horizon")
    # position-major: row n-2 holds every trial's term for n, contiguously;
    # one side's terms at a time
    terms = np.empty((horizon - 1, trials))
    # the n = 1 term is +0.0 on every path, and this is from_samples of such a row
    zero = EstimateCI(0.0, 0.0, trials, z, 0.0, 0.0)

    def side(first: int, lo: int, mass_terms) -> list[EstimateCI]:
        def step(chunk: np.ndarray, tile):
            block = process.sample_block(seed, chunk + np.uint64(first), lo, lo + horizon, tile)
            sums = _anchored_float_sums(block, tile, anchor_end=lo < 0)
            return (mass_terms(sums, tile)[:, 1:],)

        if horizon > 1:
            _fill_rows(step, threads, horizon, terms.T)
        # a row's deviations overwrite it once it is summed
        return [zero, *(EstimateCI.from_samples(row, z, row) for row in terms)]

    return tuple(zip(side(0, 0, sent_mass_terms), side(trials, -horizon, received_mass_terms)))


def exact_identity(
    process: Process, horizon: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Both sides of E[M(0, n)] = E[M(-n, 0)] for n = 1..horizon, exactly.

    Both are 0 at n = 1.  For n >= 2 the ``transport`` closed forms make
    each side a difference of one expectation over n - 1 and over n
    consecutive increments:

    * E[M(-n, 0)] = A_{n-1} - A_n, with A_k = E[max(-U_k, 0)].  U_k, the
      largest sum of increments ending at X_k, follows Lindley's recursion
      U_k = X_k + max(U_{k-1}, 0); -U_k is the suffix minimum
      min(S_-k, .., S_-1) shifted by k.  The indicator X_0 <= 0 is implied:
      U_k < 0 only if X_k < 0.
    * E[M(0, n)] = B_{n-1} - B_n, with B_k = E[max(min(S_1, .., S_k), 0)]
      (X_1 > 0 is implied again).  Read backward from X_k, that minimum is
      the smallest sum of increments ending at X_1, so B_k is A_k of the
      walk reversed in time (``reversed_law``) and negated.

    So each side is one ``exact_fold`` over (state, U), reading A_k after
    every step: O(horizon) values of U per state and step for an integer
    walk, O(horizon^2) in all.  The two sides share only the step law, and
    ``atom_cap`` bounds both folds together.
    """
    if horizon < 1:
        raise InvalidSpec("horizon must be at least 1")

    def lindley(u, x):
        return x + max(u, 0)

    def deficit(u):
        return max(-u, 0)

    def sides(law):  # sending (the walk backward and negated), then receiving
        back = {s: [(p, -x, t) for p, x, t in b] for s, b in reversed_law(law).items()}
        return back, law

    sent, received = (
        [Fraction(a - b, den * scale) for a, b in zip(reads, reads[1:])]
        for reads, den, scale in exact_fold(
            process, horizon, 0, lindley, atom_cap, read=deficit, laws=sides
        )
    )
    zero = Fraction(0)
    return ((zero, zero), *zip(sent, received))


def exact_maximal_ergodic(
    process: Process, n_max: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> Fraction:
    """E[X_1; some S_n <= 0 with n <= n_max], exactly.

    The inequality value <= 0 holds for every stationary sequence at
    every n_max separately, so each finite check is a complete instance
    of the statement, not an approximation of a limit.  The quantity is
    non-decreasing in n_max: a path whose first visit to (-inf, 0]
    happens at n_max + 1 must have started upward, so extending the
    horizon only ever adds positive X_1 contributions.
    """
    weights, den, scale = _survivors(process, n_max, atom_cap)
    # E[X_1] less E[X_1; S_n > 0 for all n <= n_max]
    survived = sum(w * x1 for (_, x1), w in weights.items())
    return process.exact_mean() - Fraction(survived, den * scale)


def mc_maximal_ergodic(
    process: Process,
    n_max: int,
    trials: int,
    seed: int,
    *,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> EstimateCI:
    """Estimate E[X_1; some S_n <= 0 with n <= n_max].

    A trial's payout is fixed at its first ruin, so ``_ruin`` samples a
    prefix of n_max / 8 positions of every trial and whole rows only for
    the trials it leaves unruined.  With a fraction f of trials unruined
    at the prefix's end, that is 1/8 + f of the increments of sampling
    every whole row: 0.39 for ``gaussian_drift`` at n_max = 64, where
    f = 0.26.  The worst case, a spec where almost no trial is ruined,
    samples 1/8 more.  A ruin in the prefix counts even where later
    increments overflow to NaN sums (see ``_ruin``).
    """

    def step(chunk: np.ndarray, tile):
        first, low = _ruin(process, seed, chunk, n_max, tile)
        return first * (low <= 0.0)

    return _estimate(step, trials, threads, n_max, _screen_width(n_max), z, "horizon")


def _survivors(process: Process, n_max: int, atom_cap: int) -> tuple[dict, int, int]:
    """exact_fold over (S_n_max, X_1) of the paths with S_n > 0 for all n <= n_max."""
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")

    def extend(acc, x):  # X_1 is 0 only before the first step: a survivor's is > 0
        s = acc[0] + x
        return (s, acc[1] or x) if s > 0 else None

    [survivors] = exact_fold(process, n_max, (0, 0), extend, atom_cap)
    return survivors


def exact_survival(process: Process, n_max: int, atom_cap: int = DEFAULT_ATOM_CAP) -> Fraction:
    """P(S_n > 0 for all n <= n_max), exactly."""
    weights, den, _ = _survivors(process, n_max, atom_cap)
    return Fraction(sum(weights.values()), den)


def mc_survival(
    process: Process,
    n_max: int,
    trials: int,
    seed: int,
    *,
    z: float = Z_DEFAULT,
    threads: int = 1,
) -> EstimateCI:
    """Estimate P(S_n > 0 for all n <= n_max).

    A trial's indicator is fixed at its first ruin, so ``_ruin`` samples
    a prefix of n_max / 8 positions of every trial and whole rows only for
    the trials it leaves unruined.  With a fraction f of trials unruined
    at the prefix's end, that is 1/8 + f of the increments of sampling
    every whole row: 0.32 for ``p06_walk`` at n_max = 2048 (f = 0.195)
    and 0.67 for ``markov_drift`` (f = 0.545).  The worst case, a spec
    where almost no trial is ruined, samples 1/8 more.
    """

    def step(chunk: np.ndarray, tile):
        _, low = _ruin(process, seed, chunk, n_max, tile)
        return low > 0.0

    return _estimate(step, trials, threads, n_max, _screen_width(n_max), z, "horizon")


# ---------------------------------------------------------------------------
# how much of the survival probability a finite horizon can miss


def survival_truncation_bound(process: Process, n_max: int) -> float | None:
    """Upper bound on P(ruin strictly after n_max), the truncation bias.

    The horizon-n_max survival probability overstates true survival by
    exactly P(first nonpositive sum occurs beyond n_max), which union
    bounds by sum of P(S_n <= 0) over n > n_max.  Available for positive
    mean kinds with a step law of at most 1024 branches, the Gaussian, and
    mixtures of those; None when no geometric tail bound is known.
    """
    decay = process.ruin_decay()
    if decay is None:
        return None
    rho, c = decay
    if rho <= 0.0:
        return 0.0
    if rho >= 1.0:
        return None
    return float(min(1.0, c * rho ** (n_max + 1) / (1.0 - rho)))
