"""Stationary increment processes: descriptions, sampling, exact laws.

A process produces a two-sided stationary sequence of increments
X_k (k in Z) with partial sums anchored at S_0 = 0.  Six kinds are
supported:

* ``IidDiscrete``     independent draws from a finite table
* ``IidGaussian``     independent normal draws
* ``MarkovChain``     payoff of a finite-state chain started stationary
* ``MovingAverage``   finite linear filter over iid innovations
* ``Rotation``        step-function payoff read along an irrational
                      rotation of the circle with a uniform phase
* ``Mixture``         draw one component per trajectory, then follow it

Probabilities, weights and transition entries are exact rationals
(``fractions.Fraction``).  Payoff values may be floats or rationals; a
process whose distribution has finite support and whose values are all
rationals has a step law (:meth:`Process.step_law`), which one fold
(:func:`exact_fold`) carries forward exactly, alongside Monte Carlo.

Sampling is counter based (see :mod:`masstransport.rng`): the block of
increments for a trial is a pure function of (seed, trial, window) and
of the stream ids assigned to the nodes of the description.  For iid,
moving-average and rotation kinds each increment depends on its own
index only, so windows of any shape cut from the same trial agree
wherever they overlap.  A Markov chain starts from its stationary law at
the first index of its window, lo + 1: chain windows with the same lo
agree wherever they overlap (extending to the right keeps the prefix),
while windows with different lo have the same law but not the same
path.  A mixture follows the contract of the component a trial picks.

A walk cuts the windows [0, a], [a, b], .. from its trials and carries
one rule across them: every kind keeps ``walk_width`` float64 columns
per trial (``Process.walk_state``), fills them in the window at lo = 0
and continues from them when lo > 0, so the windows give the numbers of
the window [0, b] and none is drawn twice.  A chain keeps its state, a
moving average its last q innovations, a rotation its phase, and a
mixture its pick beside each child's own columns.

Each kind is one spec dataclass, whose ``kind`` string names it in JSON,
and one :class:`Process` class that validates, samples and folds it;
``_PROCESSES`` pairs them.  Code elsewhere reads a spec's fields through
:func:`dataclasses.fields` and never branches on the kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import ClassVar, Sequence, Union

import numpy as np

from . import rng
from .scratch import FRESH, check_bytes, order_of, scan, tile_order
from .errors import (
    ExplosionCap,
    InvalidSpec,
    NoStationaryDistribution,
    UnsupportedProcess,
)

Real = Union[float, Fraction]

# default cap on step-law branches plus the states an exact fold carries
DEFAULT_ATOM_CAP = 1 << 20

# default rotation angle: fractional part of the golden ratio
GOLDEN_ANGLE = (math.sqrt(5.0) - 1.0) / 2.0


def _coerce_real(v, where: str | None = None) -> Real:
    """Normalize payoff-like values: ints become exact, floats stay floats.
    Either must be finite as a float, since sampling runs in floats."""
    if isinstance(v, bool):
        raise InvalidSpec("boolean is not a valid numeric value", where)
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
    elif isinstance(v, (float, np.floating)):
        v = float(v)
    else:
        raise InvalidSpec(f"expected a number, got {type(v).__name__}", where)
    try:
        finite = math.isfinite(v)
    except OverflowError:  # a rational past the float range
        finite = False
    if not finite:
        raise InvalidSpec("expected a finite number within the float range", where)
    return v


def _coerce_reals(vs, where: str) -> tuple[Real, ...]:
    return tuple(_coerce_real(v, f"{where}[{i}]") for i, v in enumerate(vs))


# ---------------------------------------------------------------------------
# process descriptions


@dataclass(frozen=True)
class IidDiscrete:
    """Independent draws from a finite value table."""

    kind: ClassVar[str] = "iid_discrete"
    values: tuple[Real, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce_reals(self.values, "values"))
        object.__setattr__(self, "probs", tuple(self.probs))


@dataclass(frozen=True)
class IidGaussian:
    """Independent normal draws with the given mean and standard deviation."""

    kind: ClassVar[str] = "iid_gaussian"
    mean: float
    stddev: float


@dataclass(frozen=True)
class MarkovChain:
    """Payoff sequence X_k = payoffs[state_k] of a stationary finite chain."""

    kind: ClassVar[str] = "markov_chain"
    transitions: tuple[tuple[Fraction, ...], ...]
    payoffs: tuple[Real, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(tuple(row) for row in self.transitions))
        object.__setattr__(self, "payoffs", _coerce_reals(self.payoffs, "payoffs"))


@dataclass(frozen=True)
class MovingAverage:
    """X_k = sum_i coefficients[i] * Z_{k-i} over iid innovations Z."""

    kind: ClassVar[str] = "moving_average"
    coefficients: tuple[Real, ...]
    innovation: Union[IidDiscrete, IidGaussian]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _coerce_reals(self.coefficients, "coefficients"))


@dataclass(frozen=True)
class Rotation:
    """X_k = step(phase + k * angle mod 1) with a uniform random phase.

    ``pieces`` lists (breakpoint, value) pairs with strictly increasing
    breakpoints in [0, 1); the value applies from its breakpoint up to the
    next one, and the last piece wraps around through 0 back to the first
    breakpoint.  ``angle`` should be irrational for ergodicity; that
    cannot be represented, let alone checked, in floating point, so the
    default is a float close to the golden rotation and the sequence is
    periodic with an astronomically long period.
    """

    kind: ClassVar[str] = "rotation"
    pieces: tuple[tuple[float, Real], ...]
    angle: float = GOLDEN_ANGLE

    def __post_init__(self):
        pieces = tuple(
            (float(_coerce_real(b, f"pieces[{i}][0]")), _coerce_real(v, f"pieces[{i}][1]"))
            for i, (b, v) in enumerate(self.pieces)
        )
        object.__setattr__(self, "pieces", pieces)


@dataclass(frozen=True)
class Mixture:
    """Pick one component per trajectory with the given weights."""

    kind: ClassVar[str] = "mixture"
    components: tuple[tuple[Fraction, "ProcessSpec"], ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple((w, s) for w, s in self.components))


ProcessSpec = Union[IidDiscrete, IidGaussian, MarkovChain, MovingAverage, Rotation, Mixture]

# the kinds a moving average may filter
IID_SPECS = (IidDiscrete, IidGaussian)


# ---------------------------------------------------------------------------
# path windows and exact distributions


@dataclass(frozen=True)
class PathWindow:
    """A finite stretch of one trajectory, increments and anchored sums.

    ``values[j]`` is the increment X_{lo+1+j}; ``sums[k - lo]`` is the
    partial sum S_k, normalized so that S_0 = 0.  The window must contain
    the origin and at least one increment.
    """

    lo: int
    hi: int
    values: tuple[Real, ...]
    sums: tuple[Real, ...] = field(init=False)

    def __post_init__(self):
        _check_window(self.lo, self.hi)
        if len(self.values) != self.hi - self.lo:
            raise InvalidSpec("values length does not match window size")
        sums = tuple(itertools.accumulate(self.values, initial=0))
        if self.lo != 0:  # anchor at S_0 = 0; at lo = 0 the sums already are
            shift = sums[-self.lo]
            sums = tuple(p - shift for p in sums)
        object.__setattr__(self, "sums", sums)

    @classmethod
    def from_values(cls, lo: int, values: Sequence[Real]) -> "PathWindow":
        vals = tuple(float(v) if isinstance(v, np.floating) else v for v in values)
        return cls(lo, lo + len(vals), vals)

    def x(self, k: int) -> Real:
        """Increment X_k for lo < k <= hi."""
        if not (self.lo < k <= self.hi):
            raise IndexError(f"increment index {k} outside ({self.lo}, {self.hi}]")
        return self.values[k - self.lo - 1]

    def s(self, k: int) -> Real:
        """Partial sum S_k for lo <= k <= hi."""
        if not (self.lo <= k <= self.hi):
            raise IndexError(f"sum index {k} outside [{self.lo}, {self.hi}]")
        return self.sums[k - self.lo]


# ---------------------------------------------------------------------------
# runtime processes


class Process:
    """Runtime form of a ProcessSpec: sampling, exact laws, moments.

    Each kind's constructor takes (spec, stream, build): ``build`` turns
    a child description into a Process with the next stream ids, so only
    kinds with children call it.
    """

    spec: ProcessSpec
    stream: int
    # each increment is drawn from its own index alone, so a window cut from
    # a longer one holds the same numbers wherever the two overlap (all but
    # a chain, which starts at its window's first position)
    index_pure: bool = True
    # the float64 columns a walk carries per trial from window to window
    walk_width: int = 0

    def mean(self) -> float:
        raise NotImplementedError

    def magnitude(self) -> tuple[float, str]:
        """(B, field): no increment's magnitude exceeds the float B, and
        ``field`` names the spec field B comes from."""
        raise NotImplementedError

    def exact_mean(self) -> Fraction | None:
        """The mean as a rational; None (no exact law) when a value is a float."""
        return None

    def components(self) -> tuple[tuple[Fraction, "Process"], ...]:
        """(weight, process) for each ergodic component, as a Mixture spec lists them."""
        return ((Fraction(1), self),)

    def sample_block(
        self, seed: int, trials: np.ndarray, lo: int, hi: int, scratch=FRESH, state=None
    ) -> np.ndarray:
        """Increments X_{lo+1}..X_hi for each trial, shape (T, hi-lo).

        The block and the temporaries behind it come from ``scratch``
        (see :mod:`masstransport.scratch`); by default they are new arrays.
        The block is stored in ``tile_order(T, hi-lo)``.

        ``state``, from ``walk_state`` with its rows in the order it
        gives, carries a kind across consecutive windows [0, a], [a, b],
        .. of the same trials, which then give the numbers of the window
        [0, b].  The window at lo = 0 fills the kind's ``walk_width``
        columns and a window at lo > 0 continues from them:
        * a chain keeps each trial's state at hi: at lo = 0 it starts
          from its stationary law, as without ``state``, and later steps
          the state at lo with the draw at lo + 1;
        * a moving average of order q keeps each trial's last q
          innovations: at lo = 0 it draws the q before the window;
        * a rotation keeps each trial's phase, drawn at lo = 0;
        * a mixture keeps each trial's pick in column 0, drawn by
          ``walk_state``, and hands each child the view ``state[rows, 1 :
          1 + child.walk_width]`` of its trials' rows.
        Kinds of width 0 (the iid ones) ignore it.
        """
        raise NotImplementedError

    def walk_state(self, seed: int, trials: np.ndarray) -> tuple:
        """(state, order) to walk ``trials`` window by window from lo = 0:
        ``state`` holds ``walk_width`` float64 columns for each trial, rows
        in ``order``, for ``sample_block`` to fill and continue, and
        ``order`` is the order of the trials that samples them fastest, or
        None for the order given."""
        return np.empty((len(trials), self.walk_width)), None

    def component_ids(self, seed: int, trials: np.ndarray) -> np.ndarray:
        """Which ergodic component each trial follows, shape (T,)."""
        return np.zeros(len(trials), dtype=np.int64)

    def step_law(self, cap: int) -> dict:
        """The next increment's law: state -> (probability, value, next state)
        branches, starting from state None.  Exact kinds only; a law of more
        than ``cap`` branches may be refused with ExplosionCap unbuilt."""
        raise UnsupportedProcess(f"{type(self.spec).__name__} has no exact step law")

    def ruin_decay(self) -> tuple[float, float] | None:
        """(rho, c) with P(S_n <= 0) <= c * rho^n, or None when unavailable.

        Reads the step law (None past sqrt(DEFAULT_ATOM_CAP) branches) as a
        chain on the (landing state, value) pairs of its branches of
        positive probability, started from the row of state None.  The
        sign of the drift is the exact mean's where there is one: a walk
        of exact mean 0 can have a float mean of either sign.
        """
        mean = self.mean()
        exact = self.exact_mean()
        if exact is not None:
            if exact <= 0 < mean:  # positive by rounding alone: no search
                return None
            mean = exact
        try:
            law = self.step_law(math.isqrt(DEFAULT_ATOM_CAP))
        except (UnsupportedProcess, ExplosionCap):
            return None
        law = {s: [(p, (t, x)) for p, x, t in b if p] for s, b in law.items()}
        pairs = dict.fromkeys(pair for b in law.values() for _, pair in b)  # law[None]'s first

        def row(branches) -> np.ndarray:
            weights = dict.fromkeys(pairs, Fraction(0))
            for p, pair in branches:
                weights[pair] += p
            return np.array([float(w) for w in weights.values()])

        matrix = np.array([row(law[t]) for t, _ in pairs])
        payoffs = np.array([float(x) for _, x in pairs])
        return _chain_decay(mean, matrix, payoffs, row(law[None]))


def _check_prob(x, where: str) -> Fraction:
    """Probabilities become exact Fractions.  Floats convert by their exact
    binary value, so 0.5 is fine while 0.7 + 0.4 will fail the sum check."""
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        raise InvalidSpec(
            f"probabilities must be rationals, not {type(x).__name__}", where
        )
    try:
        x = Fraction(x)
    except (ValueError, OverflowError):  # a nan or infinite float
        raise InvalidSpec(f"probability {x} is not finite", where) from None
    if not (0 <= x <= 1):
        raise InvalidSpec(f"probability {x} outside [0, 1]", where)
    return x


# tables up to this long are searched by one comparison pass per entry:
# on short tables those passes cost less per element than searchsorted's
# binary search of each element, and they stay ahead well past 16, which
# keeps a wide margin.  No bundled table comes near it.
_SCAN_MAX = 16


def _count_cuts(cuts: np.ndarray, x: np.ndarray, side: str, scratch=FRESH) -> np.ndarray:
    """``np.searchsorted(cuts, x, side)`` for sorted cuts.

    That is the number of cuts below x (``side='left'``) or at or below it
    (``side='right'``).  A short table counts with one comparison pass
    per cut, many times faster than a binary search per element.  The
    count is an intp array, the index type ``take`` reads without a
    conversion pass.
    """
    order = order_of(x)
    if len(cuts) > _SCAN_MAX:
        # searched in x's memory order, so the count keeps x's layout
        flat = np.searchsorted(cuts, x.ravel("K"), side=side)
        return flat.reshape(x.shape, order=order)
    below = np.less if side == "left" else np.less_equal
    count = scratch.empty(x.shape, np.intp, order)
    if len(cuts) == 0:
        count.fill(0)
        return count
    below(cuts[0], x, out=count)
    if len(cuts) > 1:
        hit = scratch.empty(x.shape, bool, order)
        for c in cuts[1:]:
            count += below(c, x, out=hit)
    return count


def _cumulative(weights) -> np.ndarray:
    """Float cumulative sums along the last axis, ending in exactly 1.0."""
    cum = np.cumsum(np.array(weights, dtype=np.float64), axis=-1)
    cum[..., -1] = 1.0
    return cum


def _lookup(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[index]`` written into ``out``, both contiguous in one order.

    ``take`` reads and writes in memory order over the flat views; given a
    trial-contiguous out it would copy through a C-ordered buffer instead.
    Every index is in range, and "clip" writes to out unbuffered.
    """
    table.take(index.ravel("K"), out=out.ravel("K"), mode="clip")
    return out


def _inverse_cdf(cum: np.ndarray, u: np.ndarray, scratch=FRESH) -> np.ndarray:
    """Index of the first cumulative weight >= u; cum[-1] must be 1.0.

    The last weight (1.0 > u) is never below u, so it is not compared.
    """
    return _count_cuts(cum[:-1], u, "left", scratch)


class IidDiscreteProcess(Process):
    def __init__(self, spec: IidDiscrete, stream: int, build=None):
        if len(spec.values) == 0:
            raise InvalidSpec("value table is empty", "values")
        if len(spec.values) != len(spec.probs):
            raise InvalidSpec("values and probs have different lengths", "probs")
        probs = tuple(_check_prob(p, "probs") for p in spec.probs)
        if sum(probs) != 1:
            raise InvalidSpec(f"probabilities sum to {sum(probs)}, not 1", "probs")
        self.spec = IidDiscrete(spec.values, probs)
        self.stream = stream
        self._values_f = np.array([float(v) for v in self.spec.values], dtype=np.float64)
        self._cum = _cumulative(probs)

    def mean(self) -> float:
        return float(sum(float(v) * float(p) for v, p in zip(self.spec.values, self.spec.probs)))

    def magnitude(self) -> tuple[float, str]:
        return float(np.abs(self._values_f).max()), "values"

    def exact_mean(self) -> Fraction | None:
        if not all(isinstance(v, Fraction) for v in self.spec.values):
            return None
        return sum((v * p for v, p in zip(self.spec.values, self.spec.probs)), Fraction(0))

    def sample_block(self, seed, trials, lo, hi, scratch=FRESH, state=None):
        if len(self._values_f) == 1:
            out = scratch.empty((len(trials), hi - lo), order=tile_order(len(trials), hi - lo))
            out.fill(self._values_f[0])
            return out
        u = rng.uniform_block(
            seed, self.stream, trials, rng.index_positions(lo + 1, hi), scratch
        )
        return _lookup(self._values_f, _inverse_cdf(self._cum, u, scratch), u)

    def step_law(self, cap):
        # one state: every draw is fresh
        return {None: [(p, v, None) for v, p in zip(self.spec.values, self.spec.probs)]}


class GaussianProcess(Process):
    def __init__(self, spec: IidGaussian, stream: int, build=None):
        mean = float(_coerce_real(spec.mean, "mean"))
        stddev = float(_coerce_real(spec.stddev, "stddev"))
        if not stddev > 0:
            raise InvalidSpec("stddev must be positive", "stddev")
        self.spec = IidGaussian(mean, stddev)
        self.stream = stream

    def mean(self) -> float:
        return self.spec.mean

    def magnitude(self) -> tuple[float, str]:
        # |ndtri(u)| < 8.3 for every u on the rng's lattice (tested at its
        # extreme words)
        mu, sd = abs(self.spec.mean), 9.0 * self.spec.stddev
        return mu + sd, "mean" if mu > sd else "stddev"

    def sample_block(self, seed, trials, lo, hi, scratch=FRESH, state=None):
        return rng.gaussian_block(
            seed, self.stream, trials, rng.index_positions(lo + 1, hi), self.spec.mean,
            self.spec.stddev, scratch,
        )

    def ruin_decay(self):
        mu, sd = self.spec.mean, self.spec.stddev
        if mu <= 0:
            return None
        return math.exp(-mu * mu / (2.0 * sd * sd)), 1.0


class MarkovProcess(Process):
    index_pure = False
    walk_width = 1

    def __init__(self, spec: MarkovChain, stream: int, build=None):
        rows = _stochastic_rows(spec.transitions)
        n = len(rows)
        if len(spec.payoffs) != n:
            raise InvalidSpec(f"expected {n} payoffs, got {len(spec.payoffs)}", "payoffs")
        self.spec = MarkovChain(rows, spec.payoffs)
        self.stream = stream
        self.pi = _stationary_law(rows)
        if any(p == 0 for p in self.pi):
            raise NoStationaryDistribution(
                "stationary law puts zero weight on some state; drop transient states"
            )
        self._payoff_f = np.array([float(v) for v in self.spec.payoffs], dtype=np.float64)
        self._pi_cum = _cumulative(self.pi)
        self._row_cum = rc = _cumulative(rows)
        # column c < n - 1 of the cumulative rows, by state; the last is 1.0
        self._cut_columns = [np.ascontiguousarray(col) for col in rc.T[:-1]]
        # a two-state column can swap the states only if some u has
        # row_cum[0, 0] < u <= row_cum[1, 0]
        self._swaps = n == 2 and rc[0, 0] < rc[1, 0]

    def mean(self) -> float:
        return float(sum(float(p) * float(v) for p, v in zip(self.pi, self.spec.payoffs)))

    def magnitude(self) -> tuple[float, str]:
        return float(np.abs(self._payoff_f).max()), "payoffs"

    def exact_mean(self) -> Fraction | None:
        if not all(isinstance(v, Fraction) for v in self.spec.payoffs):
            return None
        return sum((p * v for p, v in zip(self.pi, self.spec.payoffs)), Fraction(0))

    def sample_block(self, seed, trials, lo, hi, scratch=FRESH, state=None):
        # one uniform per index: the draw at lo+1 picks the initial state
        # from the stationary law, or steps a carried one; later draws step
        # the chain
        u = rng.uniform_block(
            seed, self.stream, trials, rng.index_positions(lo + 1, hi), scratch
        )
        if state is not None and lo > 0:
            n = len(state)
            work = np.empty(n, np.intp), np.empty(n), np.empty(n, bool)
            start = _chain_step(state[:, 0].astype(np.intp), u[:, 0], self._cut_columns, *work)
        else:
            start = _inverse_cdf(self._pi_cum, u[:, 0])
        if len(self._payoff_f) == 2:
            rc = self._row_cum
            states = _two_state_path(start, u, rc[0, 0], rc[1, 0], self._swaps, scratch)
        else:
            states = _chain_path(start, u, self._cut_columns, scratch)
        if state is not None:
            state[:, 0] = states[:, -1]
        return _lookup(self._payoff_f, states, u)

    def step_law(self, cap):
        # the state is the chain's: the first is drawn from pi, rows step it
        rows = {None: self.pi, **dict(enumerate(self.spec.transitions))}
        return {s: [(p, self.spec.payoffs[t], t) for t, p in enumerate(r)] for s, r in rows.items()}


class MovingAverageProcess(Process):
    def __init__(self, spec: MovingAverage, stream: int, build):
        if not isinstance(spec.innovation, IID_SPECS):
            raise InvalidSpec("innovation must be an iid kind", "innovation")
        inner = build(spec.innovation)
        if len(spec.coefficients) == 0:
            raise InvalidSpec("coefficient list is empty", "coefficients")
        self.spec = MovingAverage(spec.coefficients, inner.spec)
        self.stream = stream
        self.inner = inner
        self.order = self.walk_width = len(spec.coefficients) - 1
        self._coef_f = [float(c) for c in spec.coefficients]

    def mean(self) -> float:
        return self.inner.mean() * float(sum(self._coef_f))

    def magnitude(self) -> tuple[float, str]:
        # the larger of the two factors names the field
        inner, field = self.inner.magnitude()
        gain = sum(abs(c) for c in self._coef_f)
        return gain * inner, "coefficients" if gain > inner else field

    def exact_mean(self) -> Fraction | None:
        im = self.inner.exact_mean()
        if im is None or not all(isinstance(c, Fraction) for c in self.spec.coefficients):
            return None
        return im * sum(self.spec.coefficients, Fraction(0))

    def sample_block(self, seed, trials, lo, hi, scratch=FRESH, state=None):
        q = self.order
        length = hi - lo
        # the innovations before lo + 1: the last q columns of z, or the
        # state's when it carries them
        k = 0 if state is not None and lo > 0 else q
        z = self.inner.sample_block(seed, trials, lo - k, hi, scratch)
        out = scratch.empty((len(trials), length), order=order_of(z))
        np.multiply(self._coef_f[0], z[:, k : k + length], out=out)
        term = scratch.empty(out.shape, order=order_of(z))
        for i, c in enumerate(self._coef_f[1:], 1):
            # X_{lo+1+j} reads the innovation at lo+1+j-i, in z from
            # column j = i - k on and in the state before that
            j = min(max(i - k, 0), length)
            out[:, j:] += np.multiply(c, z[:, k - i + j : k - i + length], out=term[:, j:])
            if j:
                out[:, :j] += np.multiply(c, state[:, q - i : q - i + j], out=term[:, :j])
        if state is not None:
            # the last q innovations of the carried ones, then z's
            drawn = z.shape[1]
            if drawn < q:
                state[:, : q - drawn] = state[:, drawn:]
            state[:, max(q - drawn, 0) :] = z[:, max(drawn - q, 0) :]
        return out

    def step_law(self, cap):
        # the state: the last q innovations' table indices; step one draws q + 1
        table = self.inner.step_law(cap)[None]
        k, q = len(table), self.order
        # k^(q+1) first steps and k^q states of k branches each; as k^(q+1)
        # >= 2^(q+1) for k > 1, the power never needs more bits than the cap
        if k > 1 and 2 * k ** min(q + 1, cap.bit_length()) > cap:
            raise ExplosionCap(f"the step law has more than the cap of {cap} branches")
        law: dict = {None: []}
        for draws in itertools.product(range(k), repeat=q + 1):  # oldest first
            x = sum(c * table[i][1] for c, i in zip(self.spec.coefficients, reversed(draws)))
            law[None].append((math.prod(table[i][0] for i in draws), x, draws[1:]))
            law.setdefault(draws[:-1], []).append((table[draws[-1]][0], x, draws[1:]))
        return law


class RotationProcess(Process):
    walk_width = 1

    def __init__(self, spec: Rotation, stream: int, build=None):
        if len(spec.pieces) == 0:
            raise InvalidSpec("piece list is empty", "pieces")
        breaks = [b for b, _ in spec.pieces]
        if any(not (0.0 <= b < 1.0) for b in breaks):
            raise InvalidSpec("breakpoints must lie in [0, 1)", "pieces")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise InvalidSpec("breakpoints must be strictly increasing", "pieces")
        if not (0.0 < spec.angle < 1.0) or not math.isfinite(spec.angle):
            raise InvalidSpec("angle must lie in (0, 1)", "angle")
        self.spec = Rotation(spec.pieces, float(spec.angle))
        self.stream = stream
        self._breaks = np.array(breaks, dtype=np.float64)
        self._values_f = np.array([float(v) for _, v in spec.pieces], dtype=np.float64)
        # value by the number of breakpoints at or below the point; none
        # means the point sits before the first one, in the wrapping piece
        self._by_count = np.concatenate([self._values_f[-1:], self._values_f])

    def mean(self) -> float:
        # arc length of each piece on the circle; the last wraps through 0
        b = self._breaks
        v = self._values_f
        if len(b) == 1:
            return float(v[0])
        arcs = np.empty_like(b)
        arcs[:-1] = b[1:] - b[:-1]
        arcs[-1] = 1.0 - b[-1] + b[0]
        return float(arcs @ v)

    def magnitude(self) -> tuple[float, str]:
        return float(np.abs(self._values_f).max()), "pieces"

    def sample_block(self, seed, trials, lo, hi, scratch=FRESH, state=None):
        if state is not None and lo > 0:
            phase = state[:, 0]
        else:
            phase = rng.uniform_column(seed, self.stream, trials, 0)
            if state is not None:
                state[:, 0] = phase
        ks = np.arange(lo + 1, hi + 1, dtype=np.int64).astype(np.float64)
        offsets = _unit_mod(ks * self.spec.angle)
        shape = (len(trials), hi - lo)
        t = scratch.empty(shape, order=tile_order(*shape))
        np.add(phase[:, None], offsets[None, :], out=t)
        _unit_mod(t, scratch)
        return _lookup(self._by_count, _count_cuts(self._breaks, t, "right", scratch), t)


class MixtureProcess(Process):
    def __init__(self, spec: Mixture, stream: int, build):
        children = tuple(build(s) for _, s in spec.components)
        weights = tuple(_check_prob(w, "components") for w, _ in spec.components)
        if len(weights) == 0:
            raise InvalidSpec("component list is empty", "components")
        if sum(weights) != 1:
            raise InvalidSpec(f"weights sum to {sum(weights)}, not 1", "components")
        self.spec = Mixture(tuple((w, c.spec) for w, c in zip(weights, children)))
        self.stream = stream
        self.children = children
        self.weights = weights
        self.index_pure = all(c.index_pure for c in children)
        # column 0 holds a trial's pick, the columns after it its child's
        self.walk_width = 1 + max(c.walk_width for c in children)
        self._w_cum = _cumulative(weights)
        # each child's first index in the flat list of leaf components
        sizes = [len(c.components()) for c in children[:-1]]
        self._offsets = list(itertools.accumulate(sizes, initial=0))

    def mean(self) -> float:
        return float(sum(float(w) * c.mean() for w, c in zip(self.weights, self.children)))

    def exact_mean(self) -> Fraction | None:
        means = [c.exact_mean() for c in self.children]
        if None in means:
            return None
        return sum((w * m for w, m in zip(self.weights, means)), Fraction(0))

    def components(self) -> tuple[tuple[Fraction, Process], ...]:
        return tuple(
            (w * v, leaf) for w, c in zip(self.weights, self.children) for v, leaf in c.components()
        )

    def magnitude(self) -> tuple[float, str]:
        return max((c.magnitude() for c in self.children), key=lambda m: m[0])

    def _picks(self, seed, trials):
        u = rng.uniform_column(seed, self.stream, trials, 0)
        return _inverse_cdf(self._w_cum, u)

    def _groups(self, picks):
        """(c, child, rows) for each child c some trial picked, rows those
        trials' rows: one slice each where the picks are sorted, else an
        index array."""
        k = len(self.children)
        if len(picks) < 2 or (picks[1:] >= picks[:-1]).all():
            cuts = np.searchsorted(picks, np.arange(k + 1)).tolist()
            groups = [(slice(a, b), b - a) for a, b in zip(cuts, cuts[1:])]
        else:
            groups = [(rows, len(rows)) for rows in (np.nonzero(picks == c)[0] for c in range(k))]
        for c, (child, (rows, count)) in enumerate(zip(self.children, groups)):
            if count:
                yield c, child, rows

    def walk_state(self, seed, trials):
        # the trials walk in the order of their picks, and each child's in
        # the child's own order, so each child's rows are one slice, and a
        # nested mixture's children's rows slices of that
        picks = self._picks(seed, trials)
        order = np.argsort(picks, kind="stable")
        state = np.empty((len(trials), self.walk_width))
        state[:, 0] = picks[order]
        for _, child, rows in self._groups(state[:, 0]):
            sub, sub_order = child.walk_state(seed, trials[order[rows]])
            if sub_order is not None:
                order[rows] = order[rows][sub_order]
            state[rows, 1 : 1 + child.walk_width] = sub
        return state, order

    def sample_block(self, seed, trials, lo, hi, scratch=FRESH, state=None):
        picks = self._picks(seed, trials) if state is None else state[:, 0]
        # a child's block of fewer trials may take the other order
        shape = (len(trials), hi - lo)
        out = scratch.empty(shape, order=tile_order(*shape))
        for _, child, rows in self._groups(picks):
            # a walk's picks are sorted: rows is a slice, and the child's
            # columns a view it continues in place
            carried = None if state is None else state[rows, 1 : 1 + child.walk_width]
            out[rows] = child.sample_block(seed, trials[rows], lo, hi, scratch, carried)
        return out

    def component_ids(self, seed, trials):
        out = np.empty(len(trials), dtype=np.int64)
        for c, child, rows in self._groups(self._picks(seed, trials)):
            out[rows] = self._offsets[c] + child.component_ids(seed, trials[rows])
        return out

    def step_law(self, cap):
        # state (c, s): following child c in its state s; None picks a child
        law: dict = {None: []}
        for c, (w, child) in enumerate(zip(self.weights, self.children)):
            sub = child.step_law(cap)
            law[None] += [(w * p, x, (c, t)) for p, x, t in sub[None]]
            law.update(((c, s), [(p, x, (c, t)) for p, x, t in b]) for s, b in sub.items())
        return law

    def ruin_decay(self):
        rho, c = 0.0, 0.0
        for w, child in zip(self.weights, self.children):
            decay = child.ruin_decay()
            if decay is None:
                return None
            rho = max(rho, decay[0])
            c += float(w) * decay[1]
        return rho, c


# ---------------------------------------------------------------------------
# building and operating on processes


# every kind: its spec class and the Process class that runs it
_PROCESSES: dict[type, type[Process]] = {
    IidDiscrete: IidDiscreteProcess,
    IidGaussian: GaussianProcess,
    MarkovChain: MarkovProcess,
    MovingAverage: MovingAverageProcess,
    Rotation: RotationProcess,
    Mixture: MixtureProcess,
}
# kind string -> spec class, in the order error messages list them
SPEC_KINDS: dict[str, type] = {cls.kind: cls for cls in _PROCESSES}


def _process_class(spec: ProcessSpec) -> type[Process]:
    if type(spec) not in _PROCESSES:
        raise InvalidSpec(f"unknown process kind {type(spec).__name__}")
    return _PROCESSES[type(spec)]


def _build(spec: ProcessSpec, counter: list[int]) -> Process:
    cls = _process_class(spec)
    stream = counter[0]
    counter[0] += 1
    return cls(spec, stream, lambda child: _build(child, counter))


def make_process(spec: ProcessSpec) -> Process:
    """Validate a description and return a runtime process.

    Stream ids are assigned to the nodes of the description in preorder,
    so the same description always samples identically under a seed.
    """
    return _build(spec, [0])


def sample_window(process: Process, lo: int, hi: int, seed: int, trial: int = 0) -> PathWindow:
    """One simulated window; pure in (process, lo, hi, seed, trial)."""
    _check_window(lo, hi)
    if not 0 <= trial < 1 << 64:
        raise InvalidSpec(f"trial must lie in [0, 2**64), got {trial}")
    check_bytes(8 * (hi - lo), f"window [{lo}, {hi}]")
    block = process.sample_block(seed, np.array([trial], dtype=np.uint64), lo, hi)
    return PathWindow(lo, hi, tuple(block[0].tolist()))


def exact_fold(
    process: Process,
    length: int,
    start,
    step,
    atom_cap: int = DEFAULT_ATOM_CAP,
    *,
    read=None,
    laws=lambda law: (law,),
) -> list[tuple]:
    """Laws of a statistic of ``length`` consecutive increments, exactly.

    Folds each step law of ``laws(process.step_law(..))`` (by default the
    process's own alone) and returns one (result, D^length, scale) per law.
    Runs in integers: an increment x reaches ``step`` as x * scale (scale
    the lcm of the law's value denominators) and weights are over D^length
    (D the lcm of its probability denominators).  ``start`` is the
    statistic of the empty path; ``step(acc, x)`` that of a path extended
    by x, or None to drop the path.  Paths that meet at a (state,
    statistic) merge.  The result is the final {statistic: weight}; with
    ``read``, it is instead the list of sum(weight * read(statistic)) after
    each step k = 1..length, each times D^(length-k), so every entry is
    over D^length too.  ``atom_cap`` bounds the laws' branches plus the
    states carried, summed over the steps of every fold, so a longer
    window is refused at once.
    """
    if atom_cap < 1:
        raise InvalidSpec(f"atom_cap must be at least 1, got {atom_cap}")
    if process.exact_mean() is None:
        name = type(process.spec).__name__
        raise UnsupportedProcess(f"{name} has no exact law: infinite support or float values")
    if length > atom_cap:
        raise ExplosionCap(f"{length} steps carry more than the cap of {atom_cap} states")
    results, used = [], 0
    for law in laws(process.step_law(atom_cap)):
        den = math.lcm(*(p.denominator for branches in law.values() for p, _, _ in branches))
        scale = math.lcm(*(x.denominator for branches in law.values() for _, x, _ in branches))
        law = {  # zero-probability branches go
            s: [(p.numerator * den // p.denominator, x.numerator * scale // x.denominator, t)
                for p, x, t in branches if p]
            for s, branches in law.items()
        }
        used += sum(map(len, law.values()))
        carried = {(None, start): 1}
        reads = []
        for k in range(1, length + 1):
            nxt: dict = {}
            for (s, acc), w in carried.items():
                for num, x, t in law[s]:
                    a = step(acc, x)
                    if a is not None:
                        nxt[t, a] = nxt.get((t, a), 0) + w * num
            carried = nxt
            used += len(carried)
            if used > atom_cap:
                raise ExplosionCap(f"the exact fold passed the cap of {atom_cap} states at step {k}")
            if read is not None:
                reads.append(sum(w * read(acc) for (_, acc), w in carried.items()))
        if read is None:
            out: dict = {}
            for (_, acc), w in carried.items():
                out[acc] = out.get(acc, 0) + w
        else:
            out = [r * den ** (length - k) for k, r in enumerate(reads, 1)]
        results.append((out, den**length, scale))
    return results


def reversed_law(law: dict) -> dict:
    """The step law of the same process read backward in time.

    pi, the law of the state the None step lands in, is stationary.  A
    branch s -> t with value x, s in pi's support, steps back from t to s
    with the same value and weight pi(s) p / pi(t); the start row takes it
    with weight pi(s) p and lands in s.  So k steps of the result emit
    X_k, .., X_1 of the forward law.  Zero-probability branches go.  A law
    whose None step lands in None is iid: its row from None already is the
    start row, so its branches are not appended to it twice.
    """
    pi: dict = {}
    for p, _, t in law[None]:
        pi[t] = pi.get(t, 0) + p
    back: dict = {None: []}
    for s, branches in law.items():
        if not pi.get(s):  # the start of a non-iid law, or a state never reached
            continue
        for p, x, t in branches:
            if p:
                back[None].append((pi[s] * p, x, s))
                if t is not None:
                    back.setdefault(t, []).append((pi[s] * p / pi[t], x, s))
    return back


def window_fold(process: Process, n: int, atom_cap: int = DEFAULT_ATOM_CAP) -> tuple[dict, int, int]:
    """({window: weight}, D^n, scale): exact_fold of n increments, one law wherever they sit."""
    [(weights, den, scale)] = exact_fold(process, n, (), lambda acc, x: (*acc, x), atom_cap)
    if sum(weights.values()) != den:
        raise InvalidSpec("the step law's probabilities do not sum to 1")
    return weights, den, scale


def exact_window_distribution(
    process: Process, lo: int, hi: int, atom_cap: int = DEFAULT_ATOM_CAP
) -> tuple[tuple[PathWindow, Fraction], ...]:
    """Full window law of an exact process: one (window, probability) atom
    per distinct window, the probabilities summing to 1."""
    _check_window(lo, hi)
    weights, den, scale = window_fold(process, hi - lo, atom_cap)
    decode = {x: Fraction(x, scale) for x in set().union(*weights)}  # one per distinct value
    return tuple(
        (PathWindow(lo, hi, tuple(map(decode.get, key))), Fraction(w, den))
        for key, w in weights.items()
    )


def _unit_mod(x: np.ndarray, scratch=FRESH) -> np.ndarray:
    """``np.mod(x, 1.0)`` in place, bit for bit, at a fraction of its cost.

    np.mod takes the exact fmod remainder and adds 1 to a negative one;
    x - floor(x) is the same exact value rounded once by the subtraction.
    On [1, 2) that is the exact x - 1.
    """
    x -= np.floor(x, out=scratch.empty(x.shape, order=order_of(x)))
    return x


def _two_state_path(start, u, cut0, cut1, swaps: bool, scratch=FRESH) -> np.ndarray:
    """State path of a two-state chain, shape of u, as intp states.

    Column 0 holds the states ``start``; column j >= 1 steps the state s
    to 1 when row_cum[s, 0] < u, where cut0 = row_cum[0, 0] and cut1 =
    row_cum[1, 0] (the last cumulative entry is exactly 1, which no u
    exceeds).  So each column acts as one of four maps: set 0, set 1,
    keep, or swap.  The state at column j is the value written by the
    latest "set" column, flipped once per "swap" column after it, which
    vectorizes over whole rows: encoding a set column as 2j + value makes
    the running maximum pick the latest one.  Swap columns need
    cut0 < cut1; ``swaps=False`` skips their bookkeeping and is exact
    only when cut0 >= cut1.
    """
    order = order_of(u)
    code = scratch.empty(u.shape, np.intp, order)
    a = np.less(cut0, u, out=scratch.empty(u.shape, bool, order))
    b = np.less(cut1, u, out=scratch.empty(u.shape, bool, order))
    a[:, 0] = b[:, 0] = start
    cols2 = np.arange(0, 2 * u.shape[1], 2, dtype=np.intp)
    np.add(cols2, a, out=code)
    if swaps:
        # parity of the swap columns up to j; on a set column, storing
        # value ^ parity there lets the current parity undo it later
        flips = np.greater(a, b, out=scratch.empty(u.shape, bool, order))
        scan(np.logical_xor, flips, flips)
        code ^= flips
    code *= np.equal(a, b, out=a)
    scan(np.maximum, code, code)
    code &= 1
    if swaps:
        code ^= flips
    return code


def _chain_path(start, u, cut_columns, scratch=FRESH) -> np.ndarray:
    """State path of a chain of any size, shape of u, as intp states.

    Column 0 holds the states ``start``; column j >= 1 steps each
    state s to the number of cumulative row entries row_cum[s, c] below
    u[:, j], counted over ``cut_columns`` (row_cum[:, c] for every c but
    the last, which is exactly 1 and above every u).  One column at a
    time, as the chain steps, in contiguous columns on a trial-contiguous
    tile.
    """
    order = order_of(u)
    states = scratch.empty(u.shape, np.intp, order)
    cut = scratch.empty(u.shape[:1])
    hit = scratch.empty(u.shape[:1], bool)
    states[:, 0] = start
    for j in range(1, u.shape[1]):
        _chain_step(states[:, j - 1], u[:, j], cut_columns, states[:, j], cut, hit)
    return states


def _chain_step(prev, u, cut_columns, out, cut, hit) -> np.ndarray:
    """One step of a chain of any size: the states ``prev`` moved by the
    uniforms ``u``, written into ``out``, with ``cut`` (float) and ``hit``
    (bool) as scratch of the same length."""
    out.fill(0)
    for column in cut_columns:
        out += np.less(column.take(prev, out=cut, mode="clip"), u, out=hit)
    return out


def _check_window(lo: int, hi: int) -> None:
    if not (lo <= 0 <= hi):
        raise InvalidSpec(f"window [{lo}, {hi}] must contain 0")
    if hi - lo < 1:
        raise InvalidSpec("window must contain at least one increment")


# ---------------------------------------------------------------------------
# exact stationary law of a finite chain


def _stochastic_rows(transitions) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of a square row-stochastic matrix as exact Fractions."""
    n = len(transitions)
    if n == 0:
        raise InvalidSpec("transition matrix is empty", "transitions")
    for i, row in enumerate(transitions):
        if len(row) != n:
            raise InvalidSpec(f"row {i} has length {len(row)}, expected {n}", "transitions")
    rows = tuple(
        tuple(_check_prob(p, f"transitions[{i}]") for p in row)
        for i, row in enumerate(transitions)
    )
    for i, row in enumerate(rows):
        if sum(row) != 1:
            raise InvalidSpec(f"row {i} sums to {sum(row)}, not 1", "transitions")
    return rows


def stationary_distribution(
    transitions: Sequence[Sequence[Union[Fraction, int]]],
) -> tuple[Fraction, ...]:
    """Exact stationary law pi of a row-stochastic rational matrix.

    Solves pi P = pi, sum pi = 1 by rational elimination.  Raises
    NoStationaryDistribution when the fixed space is not one dimensional
    (reducible chains with several closed classes).
    """
    return _stationary_law(_stochastic_rows(transitions))


def _stationary_law(rows: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, ...]:
    """stationary_distribution of rows that _stochastic_rows has checked.

    Solves pi (P - I) = 0 with its last equation, which the others repeat
    (the columns of P - I sum to zero), replaced by sum(pi) = 1: a system
    that is regular exactly when the fixed space is one dimensional.
    """
    n = len(rows)
    a = [[rows[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    a.append([Fraction(1)] * (n + 1))
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            raise NoStationaryDistribution(
                "the chain has several closed classes, stationary law is not unique"
            )
        a[c], a[pivot] = a[pivot], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return tuple(row[n] for row in a)


# ---------------------------------------------------------------------------
# how fast a positive-drift chain stops returning to (-inf, 0]


def _chain_decay(mean: float | Fraction, matrix: np.ndarray, payoffs: np.ndarray, start: np.ndarray):
    """Geometric bound P(S_n <= 0) <= C * rho^n for a payoff chain.

    Every state must occur: the start law or some transition gives it
    weight.  None when the mean is not positive; (0, 0) when no payoff
    is negative.  Otherwise Chernoff: P(S_n <= 0) <= E[exp(-lam S_n)]
    for lam >= 0, and the moment term is start' B^(n-1) 1 with B =
    matrix * exp(-lam payoffs) columnwise.
    Doubling lam until the spectral radius of B reaches 1 brackets the
    minimizer.  The radius is log-convex in lam, so a ternary search
    finds it; the search stops at the first step that leaves the bracket
    unchanged, since every later step would repeat it.  Each step keeps
    two thirds of the bracket and makes one ``eigvals`` call on both
    probe matrices, so a float bracket stops narrowing after about a
    hundred steps.  The Perron eigenvector turns the matrix power into
    C * rho^n.

    Where exp overflows before the radius reaches 1, every probe had a
    radius below 1, and each gives a bound.  The bracket then ends at
    the last finite probe (None if that is none, the first probe
    overflowing).  Near its end, where no cycle of the chain has a
    negative sum, the radius or the eigenvector's smallest entry can
    underflow, so lam halves until both are representable.
    """
    if mean <= 0:
        return None
    if payoffs.min() >= 0.0:
        return 0.0, 0.0

    def tilted(lam: float, out=None) -> np.ndarray:
        return np.multiply(matrix, np.exp(-lam * payoffs), out=out)

    def radius(b: np.ndarray) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(b))))

    def chernoff(lam: float):
        b = tilted(lam)
        rho = radius(b)
        if not (0.0 < rho < 1.0):
            return None
        eigvals, eigvecs = np.linalg.eig(b)
        u = np.abs(eigvecs[:, int(np.argmax(np.abs(eigvals)))])
        if u.min() <= 1e-12 * u.max():
            return None
        c = float(start @ np.exp(-lam * payoffs)) * float(u.max() / u.min()) / rho
        return (rho, c) if math.isfinite(c) else None

    hi, overflowed = 1.0, False
    for _ in range(200):
        with np.errstate(over="ignore", invalid="ignore"):
            b = tilted(hi)
        if not np.isfinite(b).all():
            if hi == 1.0:
                return None
            hi, overflowed = hi / 2.0, True
            break
        if radius(b) >= 1.0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    probes = np.empty((2, *matrix.shape))
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        tilted(m1, probes[0])
        tilted(m2, probes[1])
        r1, r2 = np.abs(np.linalg.eigvals(probes)).max(axis=1)
        bracket = (lo, m2) if r1 <= r2 else (m1, hi)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    lam = (lo + hi) / 2.0
    decay = chernoff(lam)
    while decay is None and overflowed and lam > 1.0:
        lam /= 2.0
        decay = chernoff(lam)
    return decay


# ---------------------------------------------------------------------------
# sign flip


def negate_spec(spec: ProcessSpec) -> ProcessSpec:
    """Description of the process -X.

    For every kind except IidGaussian the flipped process is pathwise the
    negation under the same seed and trial: negating values does not touch
    the probabilities driving the draws, and IEEE negation is exact.  For
    IidGaussian only the law is flipped (mean sign), since the normal
    inverse CDF draw is not an odd function of its uniform.
    """
    _process_class(spec)
    return replace(
        spec,
        **{f.name: _NEGATE[f.name](getattr(spec, f.name)) for f in fields(spec) if f.name in _NEGATE},
    )


def _negate_all(values: tuple[Real, ...]) -> tuple[Real, ...]:
    return tuple(-v for v in values)


# how each value-bearing field negates; the other fields carry over
_NEGATE = {
    "values": _negate_all,
    "mean": lambda mean: -mean,
    "payoffs": _negate_all,
    "innovation": negate_spec,
    "pieces": lambda pieces: tuple((b, -v) for b, v in pieces),
    "components": lambda components: tuple((w, negate_spec(s)) for w, s in components),
}
