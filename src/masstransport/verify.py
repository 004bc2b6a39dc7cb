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
is cut into chunks of trials (``_run_chunks``), each a pure function of
its trial indices, and every reduction runs on full arrays of trials
that the chunks' results fill.  Every draw is keyed by its absolute
(trial, position) and every per-trial value is reduced along its own
positions in order, so neither the chunks, the tile size nor the
tile's layout (:mod:`masstransport.scratch`) changes any output, and 1
or 16 threads print the same bytes.  The lane has two entry points:

* ``mc_identity``, whose chunk is one tile of whole windows, about
  ``TILE_BYTES`` of increments: a chunk returns its nonzero mass terms,
  and each side scatters them into one row of all trials for each
  n >= 2 in turn and reduces it;
* ``_walk_rows``, which admits a walk, allocates what it keeps per trial
  and fills it (``_fill_rows``): survival, the maximal inequality and
  the Birkhoff dip reach it through ``_estimate``, the trajectories
  directly.  A chunk walks its rows (``_walk``) one tile of positions at
  a time, each trial's running sum carried across, so no tile holds a
  whole row, and a trial once decided (``_ruin``: once ruined) is drawn
  no further.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
import math
import os
import sys
import threading

import numpy as np

from .errors import InvalidSpec
from .processes import DEFAULT_ATOM_CAP, Process, exact_fold, reversed_law
from .scratch import Scratch, check_bytes, order_of, scan
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

# a tile holds about TILE_BYTES of float64 increments: as many whole
# trials as fit, or a walk's trials over as many positions as fit.  A
# tile and the scratch arrays behind it then stay in cache; smaller tiles
# pay more per-tile call overhead, larger ones spill out of L2.  Chunking
# only groups trials; every draw is keyed by its absolute trial index, so
# results cannot depend on this number.
TILE_BYTES = 512 << 10

# a walked run draws at most this many increments: about half a day of
# sampling on one core at 2-3 ns per increment.  A walk holds no row, so
# no memory check bounds its horizon
MAX_INCREMENTS = 1 << 44

# a walk (``_walk_rows``) starts every chunk with tiles of this many
# positions, so its chunks hold TILE_BYTES // (8 * WALK_WIDTH) trials.
# Later tiles widen as trials drop out.  A narrow first tile draws little
# for trials that are ruined at once; a narrower one makes chunks of more
# trials, whose per-trial arrays hold more memory
WALK_WIDTH = 4


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
    return max(1, TILE_BYTES // (8 * width))


def _run_chunks(total: int, threads: int, worker, width: int = 1):
    """Apply worker to each chunk of trial indices, in order.

    A chunk is one tile of trials, or fewer where a run of fewer tiles
    than workers would leave one idle: such a run is split evenly among
    them.  A chunk's indices are built only when it runs.  The pool never
    has more threads than chunks or than CPUs.
    """
    workers = max(1, min(threads, os.cpu_count() or 1))
    size = max(1, min(_chunk_size(width), -(-total // workers)))
    starts = range(0, total, size)

    def run(start: int):
        return worker(np.arange(start, min(start + size, total), dtype=np.uint64))

    workers = min(workers, len(starts))
    if workers <= 1:
        return [run(s) for s in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, starts))


def _fill_rows(step, threads: int, width: int, *outs: np.ndarray) -> None:
    """The walked lane's loop: fill ``outs``, indexed by trial along
    axis 0, by tiles.

    ``step(chunk, tile, *rows)`` samples and reduces the trials in
    ``chunk`` in the scratch memory ``tile`` and writes them into
    ``rows``, the chunk's rows of each out, before the thread's next tile
    reuses ``tile``.
    """
    scratch = Scratch()

    def worker(chunk: np.ndarray) -> None:
        rows = slice(int(chunk[0]), int(chunk[0]) + len(chunk))
        step(chunk, scratch.tile(), *(out[rows] for out in outs))

    _run_chunks(len(outs[0]), threads, worker, width)


def check_z(z: float) -> None:
    """A finite positive z; any other gives an interval that cannot fail,
    or one that always does."""
    if not (math.isfinite(z) and z > 0):
        raise InvalidSpec(f"z must be finite and positive, got {z}")


def check_magnitude(process: Process, length: int, trials: int) -> None:
    """Refuse increments whose float sums could overflow, naming the spec
    field their bound comes from.

    With every increment within B, the sums of a window of ``length`` of
    them and its mass terms stay within 4 * length * B, and
    ``EstimateCI`` sums ``trials`` squared deviations of up to twice that.
    So nothing overflows while 16 * length * B * sqrt(trials), which
    leaves room for rounding, stays under sqrt(float max).  Lengths and
    counts past 2^64 are read as 2^64: the memory or the work check
    refuses them.
    """
    if length < 1:
        return
    bound, field = process.magnitude()
    length, trials = (float(min(n, 1 << 64)) for n in (length, max(trials, 1)))
    if not 16.0 * length * bound * math.sqrt(trials) <= math.sqrt(sys.float_info.max):
        raise InvalidSpec(
            f"sums of {length:.0f} increments of magnitude up to {bound:g} "
            "would overflow to NaN or infinity",
            field,
        )


def check_work(trials: int, n_max: int, field: str) -> None:
    """Refuse a walk of ``trials`` rows of n_max increments that would draw
    more than ``MAX_INCREMENTS``, naming ``field`` (the caller's name for
    n_max) when one row alone would, else trials."""
    if n_max > MAX_INCREMENTS or trials * n_max > MAX_INCREMENTS:
        raise InvalidSpec(
            f"needs {trials * n_max} increments, more than the {MAX_INCREMENTS} a run may draw",
            field if n_max > MAX_INCREMENTS else "trials",
        )


def _check_interval(trials: int, z: float) -> None:
    """An interval needs two samples and a valid z; anything else is a
    usage error, not a crash or a meaningless interval."""
    if trials < 2:
        raise InvalidSpec("need at least 2 trials")
    check_z(z)


def _walk_rows(step, trials: int, threads: int, n_max: int, field: str, *kept) -> list[np.ndarray]:
    """The walked lane's one driver: an array of ``trials`` rows for each
    dtype in ``kept`` (a subarray dtype keeps several values per trial),
    filled through ``_fill_rows`` by ``step(chunk, tile, *rows)``, which
    walks its chunk (``_walk``): the trials of a tile ``min(n_max,
    WALK_WIDTH)`` positions wide.  Before anything is allocated it
    refuses an n_max below 1, then the bytes memory could not hold: a
    walk's tile of ``TILE_BYTES``, naming ``field`` (the caller's name
    for n_max), and each trial's kept dtypes, naming trials; then runs
    past the work cap.
    """
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")
    check_bytes(TILE_BYTES, field)
    check_bytes(trials * sum(np.dtype(d).itemsize for d in kept), "trials")
    check_work(trials, n_max, field)
    outs = [np.empty(trials, d) for d in kept]
    _fill_rows(step, threads, min(n_max, WALK_WIDTH), *outs)
    return outs


def _estimate(step, trials: int, threads: int, n_max: int, z: float, field: str) -> EstimateCI:
    """EstimateCI of the one value per trial that ``step(chunk, tile)``
    returns from walked rows of n_max increments (``_walk_rows``).  The
    per-trial values are the run's one array of ``trials`` floats, and
    their deviations overwrite them."""
    if n_max >= 1:  # a smaller n_max is refused first, by the walk
        _check_interval(trials, z)

    def fill(chunk: np.ndarray, tile: Scratch, rows: np.ndarray) -> None:
        rows[:] = step(chunk, tile)

    [samples] = _walk_rows(fill, trials, threads, n_max, field, np.float64)
    return EstimateCI.from_samples(samples, z, samples)


def _walk(
    process: Process, seed: int, chunk: np.ndarray, n_max: int, tile: Scratch, visit,
    running: bool = True,
) -> None:
    """Walk the trials of ``chunk`` along positions 1..n_max, one tile of
    positions at a time, and show ``visit`` each tile's running sums, or
    with ``running`` False its increments.

    A tile draws positions lo+1..hi of the trials still walking, about
    ``TILE_BYTES`` of increments.  Each trial's carried S_lo is added into
    its first column before ``scan`` turns the tile into S_lo+1 .. S_hi
    in place: the bits of a whole row's running sum.  What a kind carries
    from tile to tile crosses through ``sample_block``'s ``state``, so
    every position is drawn once.

    ``visit(rows, lo, tile)`` reads the tile of the chunk's rows ``rows``
    and returns None, or a boolean mask of those rows that walk on: the
    others are decided and drawn no further.  The rows walk in the order
    the kind asks for (``Process.walk_state``: a mixture's trials grouped
    by pick), which dropping rows keeps.  ``tile`` holds each tile's
    temporaries; what the chunk carries across its tiles is its own.
    """
    n = len(chunk)
    state, order = process.walk_state(seed, chunk)
    rows = np.arange(n) if order is None else order
    trials = chunk[rows]
    carry = np.empty(n) if running else None
    lo = 0
    while lo < n_max and len(rows):
        # sized as if for at least 8 trials: the arrays along a tile's
        # positions stay small however few trials walk on
        hi = min(n_max, lo + max(1, TILE_BYTES // (8 * max(len(rows), 8))))
        block = process.sample_block(seed, trials, lo, hi, tile.tile(), state)
        if running:
            if lo:
                block[:, 0] += carry
            block = scan(np.add, block, block)
            carry[:] = block[:, -1]
        walking = visit(rows, lo, block)
        lo, block = hi, None  # nothing of a tile outlives it
        if walking is not None and not walking.all():
            # compacted in place: the walking rows move to the front
            k = int(np.count_nonzero(walking))
            rows, trials, carry, state = (
                None if a is None else _front(a, walking, k) for a in (rows, trials, carry, state)
            )


def _front(a: np.ndarray, keep: np.ndarray, k: int) -> np.ndarray:
    """The k entries of ``a`` where ``keep`` holds, moved in order to the
    front of ``a``'s own memory."""
    a[:k] = a[keep]
    return a[:k]


def _ruin(
    process: Process, seed: int, chunk: np.ndarray, n_max: int, tile: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """(X_1, min(S_1..S_n_max)) for each trial of ``chunk``, except that a
    trial ruined early keeps the minimum up to the end of the tile that
    ruined it, which is <= 0.

    It walks the chunk (``_walk``) and stops walking a trial after the
    tile where its running minimum first reaches <= 0 or NaN: a ruin is a
    ruin whatever follows, and a NaN minimum stays NaN however long the
    row.  Every minimum read to the end of the row is the one a whole
    row's scan gives.

    The one row whose reading can differ from a scan of the whole row: a
    ruin, then increments that overflow to +inf and -inf and turn the sum
    of a later tile into NaN.  The whole row's minimum is NaN, which hides
    the ruin; the walk keeps it.  Only spec values near the float range
    do that (a Gaussian or moving average of huge values), no bundled
    spec, and nothing the command line accepts (``check_magnitude``).
    """
    x1 = np.empty(len(chunk))
    low = np.empty(len(chunk))

    def visit(rows: np.ndarray, lo: int, sums: np.ndarray) -> np.ndarray:
        if lo == 0:
            x1[rows] = sums[:, 0]
        m = np.minimum.reduce(sums, axis=1, out=tile.empty((len(rows),)))
        if lo:
            np.minimum(m, low[rows], out=m)
        low[rows] = m
        return np.greater(m, 0.0, out=tile.empty((len(rows),), bool))

    _walk(process, seed, chunk, n_max, tile, visit)
    return x1, low


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

    Each side keeps only its nonzero terms.  A term M(0, n) is nonzero
    only where the running minimum falls at step n while still above S_0,
    which needs X_1 > 0 and X_n < 0 (mirrored, X_0 < 0 and X_{1-n} > 0):
    by stationarity, in expectation at most min(P(X > 0), P(X < 0)) <=
    1/2 of a row, at 12 bytes each (an int32 trial and a float64 value)
    against a dense row's 8.  A chunk returns, for each n >= 2, its trials
    whose term differs from +0.0 in any bit (NaN and -0.0 count) and
    their values.  Then for each n in turn the side scatters them into
    one zeroed row of all trials: bit for bit the row a dense
    (horizon - 1) x trials buffer would hold, so every sum is the same at
    any thread count.  M(0, 1) and M(-1, 0) are 0 on every path (the
    first record receives nothing), so n = 1 stores and samples nothing.
    Before the run, memory must hold the row and one trial's window; as
    the chunks return their terms, the row and the terms held must fit
    too, else the run is refused naming trials.

    A chunk is one tile of whole windows, and each side is screened on
    the step next to the origin.  The left side draws X_1 of every trial,
    and a whole window only where X_1 > 0.  Elsewhere S_1 <= S_0, so the
    running minimum behind the terms never rises above S_0 and every term
    is zero.  The right side draws X_0, the window [-1, 0], and a whole
    window only where X_0 < 0; elsewhere the mirrored first step S_-1 -
    S_0 is <= 0, rounding being monotone, and every term is zero again.
    The kept rows are a superset of the rows with mass (a large S_-1 can
    absorb a negative X_0), and every estimate sums the same full rows in
    trial order.  X_0 drawn alone is the last column of the whole window
    only for a ``Process.index_pure`` kind; a chain starts at its
    window's first position, so its right side (or a mixture's holding
    one) is drawn whole.  A screened-out row whose later sums would
    overflow to NaN reads zeros, not NaN terms, as in ``_ruin``.
    """
    if horizon < 1:
        raise InvalidSpec("horizon must be at least 1")
    _check_interval(trials, z)
    # one trial's window and the row of all trials; the held terms are
    # checked as the chunks return them
    check_bytes(8 * horizon, "horizon")
    check_bytes(8 * trials, "trials")
    check_work(trials, 2 * horizon, "horizon")
    # the n = 1 term is +0.0 on every path, and this is from_samples of such a row
    zero = EstimateCI(0.0, 0.0, trials, z, 0.0, 0.0)
    if horizon == 1:
        return ((zero, zero),)
    scratch = Scratch()
    row = np.empty(trials)

    def side(first: int, lo: int, mass_terms, keep) -> list[EstimateCI]:
        # the row, then 12 bytes for each term the chunks hold
        held_bytes, lock = 8 * trials, threading.Lock()

        def worker(chunk: np.ndarray):
            nonlocal held_bytes
            tile = scratch.tile()
            start = int(chunk[0])
            chunk = chunk + np.uint64(first)
            if keep is not None:
                near = process.sample_block(seed, chunk, *((0, 1) if lo == 0 else (-1, 0)), tile)
                kept = np.flatnonzero(keep(near[:, 0], 0.0))
                chunk = chunk[kept]
            # the chunk's kept windows fill at most one tile
            block = process.sample_block(seed, chunk, lo, lo + horizon, tile.tile())
            sums = tile.empty((len(block), horizon + 1), order=order_of(block))
            sums[:, 0] = 0.0
            scan(np.add, block, sums[:, 1:])
            if lo < 0:  # re-anchored at the origin, the window's end
                sums -= sums[:, -1:]
            # row j holds the terms for n = j + 2, held where any bit differs
            # from +0.0; flatnonzero and reshape(-1) both read (j, trial) order
            terms = mass_terms(sums, tile).T[1:]
            nonzero = np.not_equal(terms.view(np.int64), 0, out=tile.empty(terms.shape, bool))
            held = np.flatnonzero(nonzero)  # j * k + the trial's place in the tile
            with lock:
                held_bytes += 12 * len(held)
                check_bytes(held_bytes, "trials")
            k = len(block)
            cuts = np.searchsorted(held, k * np.arange(horizon))  # row j: cuts[j]:cuts[j + 1]
            counts = np.diff(cuts)
            at = held - np.repeat(k * np.arange(horizon - 1), counts)
            trial = (at if keep is None else kept[at]).astype(np.int32)
            js = np.flatnonzero(counts)  # the rows holding terms, one run each
            # nothing returned views the tile, which the thread's next chunk reuses
            return start, trial, terms.reshape(-1)[held], js, np.append(cuts[js], len(held))

        starts, trial, values, js, cuts = zip(*_run_chunks(trials, threads, worker, horizon))
        # (chunk, begin, end) of each run of terms a chunk holds, ordered by
        # n and then by chunk: a long horizon's many small chunks cost
        # nothing where they hold no terms
        run_j = np.concatenate(js)
        by_n = np.argsort(run_j, kind="stable")
        table = np.stack([
            np.repeat(np.arange(len(js)), [len(c) - 1 for c in cuts]),
            np.concatenate([c[:-1] for c in cuts]),
            np.concatenate([c[1:] for c in cuts]),
        ], axis=1)[by_n]
        group = np.searchsorted(run_j[by_n], np.arange(horizon))
        out = [zero]
        for j in range(horizon - 1):
            row[:] = 0.0
            for c, a, b in table[group[j]:group[j + 1]].tolist():
                row[starts[c]:][trial[c][a:b]] = values[c][a:b]
            # the row's deviations overwrite it once it is summed
            out.append(EstimateCI.from_samples(row, z, row))
        return out

    left = side(0, 0, sent_mass_terms, np.greater)
    right = side(trials, -horizon, received_mass_terms, np.less if process.index_pure else None)
    return tuple(zip(left, right))


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

    A trial's payout is fixed at its first ruin, so ``_ruin`` draws each
    trial only up to the end of the tile that ruins it, and no position
    twice.  A ruin counts even where later increments overflow to NaN
    sums (see ``_ruin``).
    """

    def step(chunk: np.ndarray, tile):
        first, low = _ruin(process, seed, chunk, n_max, tile)
        return first * (low <= 0.0)

    return _estimate(step, trials, threads, n_max, z, "horizon")


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

    A trial's indicator is fixed at its first ruin, so ``_ruin`` draws
    each trial only up to the end of the tile that ruins it, and no
    position twice.  A spec where almost every trial survives draws every
    whole row once, as a scan of whole rows would.
    """

    def step(chunk: np.ndarray, tile):
        _, low = _ruin(process, seed, chunk, n_max, tile)
        return low > 0.0

    return _estimate(step, trials, threads, n_max, z, "horizon")


# ---------------------------------------------------------------------------
# how much of the survival probability a finite horizon can miss


def survival_truncation_bound(process: Process, n_max: int) -> float | None:
    """Upper bound on P(ruin strictly after n_max), the truncation bias.

    The horizon-n_max survival probability overstates true survival by
    exactly P(first nonpositive sum occurs beyond n_max), which union
    bounds by sum of P(S_n <= 0) over n > n_max.  Available for positive
    mean kinds with a step law of at most 1024 branches, the Gaussian, and
    mixtures of those; None when no geometric tail bound is known.  A
    positive bound is never below the smallest normal float.  An n_max
    past 2^64 reads as 2^64, whose power already underflows: a looser
    bound, and a valid one.
    """
    if n_max < 1:
        raise InvalidSpec("n_max must be at least 1")
    decay = process.ruin_decay()
    if decay is None:
        return None
    rho, c = decay
    if rho <= 0.0:
        return 0.0
    if rho >= 1.0:
        return None
    bound = float(min(1.0, c * rho ** (min(n_max, 1 << 64) + 1) / (1.0 - rho)))
    # below the smallest normal float the power loses its precision or
    # underflows to 0.0, under the positive bias it bounds: round it up
    return max(bound, sys.float_info.min) if c > 0.0 else bound
