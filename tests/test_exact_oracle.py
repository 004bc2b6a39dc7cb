"""The exact fold against independent oracles.

The first oracle walks each finite kind path by path: a product over the
value table, a depth-first walk of the chain, a filter over enumerated
innovations, and a weighted union of a mixture's children.  It shares
nothing with the fold but the validated process objects and the scalar
functions of one path (``first_nonpositive``, ``mass_row`` and
``mass_received_at_zero``), which it reads in ``Fraction``s on windows of
each length n rather than in integers on one window of the longest.

The second, ``window_identity``, reads the identity off one integer fold
of whole windows with the scalar transport functions.  ``exact_identity``,
which folds Lindley's recursion forward and over the reversed law
(``reversed_law``) instead, must equal it Fraction for Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from masstransport import (
    IidDiscrete,
    MarkovChain,
    Mixture,
    MovingAverage,
    PathWindow,
    exact_identity,
    exact_maximal_ergodic,
    exact_survival,
    make_process,
    mass_received_at_zero,
    mass_row,
)
from masstransport.processes import (
    DEFAULT_ATOM_CAP,
    IidDiscreteProcess,
    MarkovProcess,
    MixtureProcess,
    MovingAverageProcess,
    exact_fold,
    exact_window_distribution,
    reversed_law,
    window_fold,
)
from masstransport.transport import first_nonpositive

from conftest import EXACT_NAMES

F = Fraction

# longest window whose law is compared, and the largest survival and
# window-oracle identity horizon of the bundled specs; the extra specs, with
# three-value steps, stop at LAW_MAX there too, which keeps the oracle to
# about 20000 paths each
LAW_MAX = 8
RUIN_MAX = 10

THREE_STATE_CHAIN = MarkovChain(
    transitions=((F(1, 2), F(1, 4), F(1, 4)), (F(1, 3), F(0), F(2, 3)), (F(1, 5), F(3, 5), F(1, 5))),
    payoffs=(2, -1, F(1, 2)),
)
EXTRA_SPECS = {
    "three_state_chain": THREE_STATE_CHAIN,
    "ma_three_values": MovingAverage(
        coefficients=(F(2, 3), F(-1, 3)),
        innovation=IidDiscrete(values=(2, 0, -1), probs=(F(1, 3), F(1, 6), F(1, 2))),
    ),
    # the zero-probability innovation leaves unreachable states in the step law
    "ma_zero_innovation": MovingAverage(
        coefficients=(1, F(-1, 2), F(1, 4)),
        innovation=IidDiscrete(values=(2, 7, -1), probs=(F(1, 4), F(0), F(3, 4))),
    ),
    "mixture_with_chain": Mixture(
        components=(
            (F(1, 3), THREE_STATE_CHAIN),
            (F(2, 3), IidDiscrete(values=(1, -1), probs=(F(3, 4), F(1, 4)))),
        )
    ),
}


def enum_paths(process, length):
    """Every (values, probability) path of ``length`` consecutive increments."""
    if isinstance(process, IidDiscreteProcess):
        pairs = [(v, p) for v, p in zip(process.spec.values, process.spec.probs) if p > 0]
        for combo in itertools.product(pairs, repeat=length):
            p = Fraction(1)
            for _, q in combo:
                p *= q
            yield tuple(v for v, _ in combo), p
    elif isinstance(process, MarkovProcess):
        payoffs, rows = process.spec.payoffs, process.spec.transitions
        pending = [((payoffs[s],), s, p) for s, p in enumerate(process.pi) if p > 0]
        while pending:
            values, s, p = pending.pop()
            if len(values) == length:
                yield values, p
                continue
            for t, q in enumerate(rows[s]):
                if q > 0:
                    pending.append((values + (payoffs[t],), t, p * q))
    elif isinstance(process, MovingAverageProcess):
        q, coefs = process.order, process.spec.coefficients
        for innov, p in enum_paths(process.inner, length + q):
            values = tuple(
                sum((coefs[i] * innov[q - i + j] for i in range(q + 1)), 0) for j in range(length)
            )
            yield values, p
    elif isinstance(process, MixtureProcess):
        for w, child in zip(process.weights, process.children):
            if w > 0:
                for values, p in enum_paths(child, length):
                    yield values, w * p
    else:
        raise AssertionError(f"no oracle for {type(process).__name__}")


@pytest.fixture(scope="module")
def processes(corpus):
    procs = {name: corpus[name] for name in EXACT_NAMES}
    procs.update((name, make_process(spec)) for name, spec in EXTRA_SPECS.items())
    return procs


def oracle_law(process, length):
    law: dict = {}
    for values, p in enum_paths(process, length):
        law[values] = law.get(values, 0) + p
    return law


def test_window_laws_match_the_oracle(processes):
    for name, proc in processes.items():
        longest = oracle_law(proc, LAW_MAX)
        assert sum(longest.values()) == 1, name
        for length in range(1, LAW_MAX + 1):
            # a window law is the marginal of the longest one on its prefix
            want: dict = {}
            for values, p in longest.items():
                want[values[:length]] = want.get(values[:length], 0) + p
            lo = -(length // 2)
            atoms = exact_window_distribution(proc, lo, lo + length)
            got = {w.values: p for w, p in atoms}
            assert len(got) == len(atoms), name  # one atom per distinct window
            assert got == want, (name, length)


def test_identity_matches_the_oracle(processes):
    for name, proc in processes.items():
        got = exact_identity(proc, LAW_MAX)
        for n in range(1, LAW_MAX + 1):
            lhs = rhs = F(0)
            for values, p in enum_paths(proc, n):
                lhs += p * mass_row(PathWindow(0, n, values), 0).get(n, 0)
                rhs += p * mass_received_at_zero(PathWindow(-n, 0, values)).get(-n, 0)
            assert got[n - 1] == (lhs, rhs), (name, n)


def test_survival_and_maximal_match_the_oracle(processes):
    for name, proc in processes.items():
        horizon = RUIN_MAX if name in EXACT_NAMES else LAW_MAX
        # P(ruin at n) and E[X_1; ruin at n], ruin the first n with S_n <= 0
        by_ruin = {n: [F(0), F(0)] for n in range(1, horizon + 1)}
        for values, p in enum_paths(proc, horizon):
            ruin = first_nonpositive(PathWindow(0, horizon, values))
            if ruin is not None:
                by_ruin[ruin][0] += p
                by_ruin[ruin][1] += p * values[0]
        survival, maximal = F(1), F(0)
        for n in range(1, horizon + 1):
            survival -= by_ruin[n][0]
            maximal += by_ruin[n][1]
            assert exact_survival(proc, n) == survival, (name, n)
            assert exact_maximal_ergodic(proc, n) == maximal, (name, n)


def window_identity(process, horizon):
    """Both sides of the identity for n <= horizon from one law of whole
    windows, read as [0, horizon] by ``mass_row`` and as [-horizon, 0] by
    ``mass_received_at_zero``; masses are in units of increments times scale."""
    weights, den, scale = window_fold(process, horizon)
    lhs, rhs = [0] * horizon, [0] * horizon
    for key, w in weights.items():
        for m, mass in mass_row(PathWindow(0, horizon, key), 0).items():
            lhs[m - 1] += w * mass
        for m, mass in mass_received_at_zero(PathWindow(-horizon, 0, key)).items():
            rhs[-m - 1] += w * mass
    return [(F(a, den * scale), F(b, den * scale)) for a, b in zip(lhs, rhs)]


def test_identity_matches_the_window_fold(processes):
    for name, proc in processes.items():
        horizon = RUIN_MAX if name in EXACT_NAMES else LAW_MAX
        want = window_identity(proc, horizon)
        for h in range(1, horizon + 1):
            assert list(exact_identity(proc, h)) == want[:h], (name, h)


def fold_windows(process, length, laws):
    """{window: probability} of ``length`` increments of the one law ``laws`` makes."""
    [(weights, den, _)] = exact_fold(process, length, (), lambda acc, x: (*acc, x), laws=laws)
    return {key: F(w, den) for key, w in weights.items()}


def test_reversed_laws_emit_windows_backward(processes):
    for name, proc in processes.items():
        forward = fold_windows(proc, LAW_MAX, lambda law: (law,))
        backward = fold_windows(proc, LAW_MAX, lambda law: (reversed_law(law),))
        assert backward == {key[::-1]: p for key, p in forward.items()}, name


def test_reversal_maps_an_iid_law_to_itself(processes):
    law = processes["p06_walk"].step_law(DEFAULT_ATOM_CAP)
    assert reversed_law(law) == law


def test_reversal_maps_a_two_state_chain_to_itself(processes):
    # pi_0 P_01 = pi_1 P_10 for every two-state chain: it is reversible
    for name in ("markov_drift", "two_point_chain"):
        proc = processes[name]
        back = reversed_law(proc.step_law(DEFAULT_ATOM_CAP))
        for i, row in enumerate(proc.spec.transitions):
            assert {j: p for p, _, j in back[i]} == dict(enumerate(row)), (name, i)
        forward = fold_windows(proc, LAW_MAX, lambda law: (law,))
        assert fold_windows(proc, LAW_MAX, lambda law: (reversed_law(law),)) == forward, name


def test_reversal_of_a_three_state_chain_steps_by_pi_j_p_ji_over_pi_i(processes):
    proc = processes["three_state_chain"]
    pi, rows, payoffs = proc.pi, proc.spec.transitions, proc.spec.payoffs
    back = reversed_law(proc.step_law(DEFAULT_ATOM_CAP))
    for i in range(3):
        # leaving i backward emits X = payoffs[i]; the zero entry P_11 is dropped
        want = {(j, payoffs[i]): pi[j] * rows[j][i] / pi[i] for j in range(3) if rows[j][i]}
        assert {(j, x): p for p, x, j in back[i]} == want, i
    assert {j: p for p, _, j in back[0]} != dict(enumerate(rows[0]))  # not reversible
