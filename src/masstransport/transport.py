"""Records, ladder epochs and the mass a site sends or receives.

All functions operate on a :class:`~masstransport.processes.PathWindow`
and are generic over the number type: float windows give float masses,
rational windows give exact rational masses.  Both sides of the
identity come back in one plain shape: records and ladder epochs as
tuples of indices, the mass a site sends (``mass_row``) and the mass
the origin receives (``mass_received_at_zero``) as ``{index: mass}``
dicts; an absent index gets nothing, so read one with ``.get(m, 0)``.
Conventions, for a sender n inside the window:

* m > n is a record after n when S_m equals min(S_{n+1}, .., S_m);
  ties count, and n+1 is always a record.
* If X_{n+1} <= 0 the sender ships nothing.  Otherwise, with the records
  enumerated as n+1 = r_0 < r_1 < r_2 < .., the sender ships
  max(S_{r_{j-1}}, S_n) - max(S_{r_j}, S_n) to r_j for each j >= 1, and
  nothing anywhere else (in particular nothing to r_0 = n+1).
* Looking left from the origin, the ladder epochs are m_0 = -1 together
  with every m < -1 satisfying S_m < min(S_{m+1}, .., S_{-1}) strictly.
  When X_0 <= 0 the origin receives max(S_{m_{j-1}}, 0) - max(S_{m_j}, 0)
  from m_j for each j >= 1; when X_0 > 0 it receives nothing.

The strict/non-strict asymmetry between records and ladder epochs is
load bearing: the received-mass formula is the closed form of a case
analysis on the sender's records, and it only collapses this way when
ties are resolved in favour of the latest minimum on both sides.

The Monte Carlo estimators use one vectorized mass profile, the mass the
origin sends, and its mirror: the mass it receives is the sent profile of
the sums read backward from the origin.  Both are checked against the
scalar definitions in the test suite.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .processes import PathWindow, Real
from .scratch import FRESH, order_of, scan

# tolerance for float consistency gates (absolute, plus relative on the
# magnitude of the quantities compared)
DEFAULT_TOLERANCE = 1e-9


def close(a: float, b: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Combined absolute and relative comparison at the package tolerance."""
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def _check_sender(window: PathWindow, n: int) -> None:
    if not (window.lo <= n < window.hi):
        raise IndexError(f"sender {n} outside [{window.lo}, {window.hi})")


def records_after(window: PathWindow, n: int) -> tuple[int, ...]:
    """All records after n that the window can see, starting with n+1."""
    _check_sender(window, n)
    records = []
    running = None
    for m, cur in enumerate(window.sums[n + 1 - window.lo :], n + 1):
        if running is None or cur <= running:
            records.append(m)
            running = cur
    return tuple(records)


def mass_row(window: PathWindow, n: int) -> dict[int, Real]:
    """Mass shipped by n to each of its records inside the window, as {m: mass}.

    The row is empty when X_{n+1} <= 0.  Otherwise entry j >= 1 of the
    record enumeration gets max(S_{r_{j-1}}, S_n) - max(S_{r_j}, S_n);
    the first record n+1 gets nothing and is absent from the row.
    """
    _check_sender(window, n)
    if not window.x(n + 1) > 0:
        return {}
    sn = window.s(n)
    records = records_after(window, n)
    out: dict[int, Real] = {}
    prev = max(window.s(records[0]), sn)
    for m in records[1:]:
        cur = max(window.s(m), sn)
        out[m] = prev - cur
        prev = cur
    return out


def total_sent(window: PathWindow, n: int) -> Real:
    """Total mass n ships inside the window, in closed form.

    Equals X_{n+1} once the window shows a sum at or below S_n to the
    right of n; until then the truncation withholds the tail amount.
    Always equals the sum of the mass row (tested, both lanes).
    """
    _check_sender(window, n)
    if not window.x(n + 1) > 0:
        return 0
    sn = window.s(n)
    floor = min(window.sums[n + 1 - window.lo :])
    return window.s(n + 1) - max(floor, sn)


def ladder_epochs_before_zero(window: PathWindow) -> tuple[int, ...]:
    """Epochs -1 = m_0 > m_1 > .. with S_m strictly under every later sum.

    Needs lo <= -1.  The enumeration stops at the window edge; epochs the
    window cannot see are simply absent.
    """
    if window.lo > -1:
        raise IndexError(f"window [{window.lo}, {window.hi}] has nothing before 0")
    epochs = [-1]
    running = window.s(-1)
    for m in range(-2, window.lo - 1, -1):
        cur = window.s(m)
        if cur < running:
            epochs.append(m)
        running = min(running, cur)
    return tuple(epochs)


def mass_received_at_zero(window: PathWindow) -> dict[int, Real]:
    """Mass the origin receives from each ladder epoch m_j, j >= 1.

    Empty when X_0 > 0.  Entry m_j carries
    max(S_{m_{j-1}}, 0) - max(S_{m_j}, 0), the closed form of the
    sender-side definition; the two agree pathwise (tested).
    """
    if window.lo > -1:
        raise IndexError(f"window [{window.lo}, {window.hi}] has nothing before 0")
    if window.x(0) > 0:
        return {}
    epochs = ladder_epochs_before_zero(window)
    out: dict[int, Real] = {}
    prev = max(window.s(epochs[0]), 0)
    for m in epochs[1:]:
        cur = max(window.s(m), 0)
        out[m] = prev - cur
        prev = cur
    return out


def first_nonpositive(window: PathWindow) -> Union[int, None]:
    """Ruin time: the first n >= 1 with S_n <= 0, None if the window shows none."""
    for n, s in enumerate(window.sums[1 - window.lo :], 1):
        if s <= 0:
            return n
    return None


# ---------------------------------------------------------------------------
# vectorized mass profiles over float sum matrices


def sent_mass_terms(sums: np.ndarray, scratch=FRESH) -> np.ndarray:
    """Per-receiver masses M(0, m) from the origin, one trial per row.

    ``sums`` has shape (T, H+1) holding S_0..S_H; the result has shape
    (T, H) with column m-1 equal to M(0, m).  Column 0 is identically
    zero: the first record receives nothing.  The result and the
    temporaries behind it come from ``scratch``, in the order of ``sums``.

    A row with S_1 <= S_0 (X_1 <= 0) sends nothing, and needs no mask:
    its running minimum is at or below S_0 from the first position on,
    so every v below equals S_0 and every term is a difference of equal
    values, a zero (or NaN where S_0 is infinite or NaN, as a mask by
    multiplication would leave it).
    """
    if sums.ndim != 2 or sums.shape[1] < 2:
        raise ValueError("need a (T, H+1) matrix of sums with H >= 1")
    t, h = sums.shape[0], sums.shape[1] - 1
    order = order_of(sums)
    v = scan(np.minimum, sums[:, 1:], scratch.empty((t, h), order=order))
    np.maximum(v, sums[:, :1], out=v)
    terms = scratch.empty((t, h), order=order)
    terms[:, 0] = 0.0
    np.subtract(v[:, :-1], v[:, 1:], out=terms[:, 1:])
    return terms


def received_mass_terms(sums: np.ndarray, scratch=FRESH) -> np.ndarray:
    """Per-sender masses M(-n, 0) into the origin, one trial per row.

    ``sums`` has shape (T, H+1) holding S_{-H}..S_0 with S_0 = 0; the
    result has shape (T, H) with column n-1 equal to M(-n, 0), in the
    memory and order ``sent_mass_terms`` gives.  It is that function of
    the mirrored sums S_0, S_{-1}, .., S_{-H}: their first step is up
    exactly when X_0 < 0, and their running minima are the suffix minima
    of the ladder-epoch form.  That form also ships when X_0 = 0, but
    then every term is 0.
    """
    if sums.ndim != 2 or sums.shape[1] < 2:
        raise ValueError("need a (T, H+1) matrix of sums with H >= 1")
    return sent_mass_terms(sums[:, ::-1], scratch)
