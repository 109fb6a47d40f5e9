"""The descent-count triangle and its generating polynomials.

Two independent construction routes are kept deliberately separate so each
can check the other:

  * an integer recurrence on triangle entries,
        T(n, i) = i * T(n-1, i) + (2n - i) * T(n-1, i-1),   T(1, 1) = 1,
    with out-of-range entries read as 0; and
  * a derivative recurrence on the generating polynomials themselves,
        P_n(x) = (x - x^2) P_(n-1)'(x) + (2n - 1) x P_(n-1)(x),  P_1(x) = x.

Row n counts Stirling permutations of order n by number of descents
(equally: plateaux, or ascents) of the statistic value i = 1..n; it sums to
(2n - 1)!!. Only the last row returned is remembered, so a run of calls in
ascending order costs one recurrence step each and memory stays at two
rows. The polynomials are memoized for the lifetime of the process, because
the certifier works on consecutive orders.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import IntPolynomial

_last_row: tuple[int, ...] = (1,)
_POLYS: list[IntPolynomial] = [IntPolynomial((0, 1))]

_X = IntPolynomial((0, 1))
_X_MINUS_X2 = IntPolynomial((0, 1, -1))
_ONE_MINUS_X = IntPolynomial((1, -1))


def triangle_row(n: int) -> tuple[int, ...]:
    """Entries (T(n,1), ..., T(n,n)) by the integer recurrence, extended from
    the last row returned when its order is at most n, else from row 1."""
    global _last_row
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    row = _last_row if len(_last_row) <= n else (1,)
    for m in range(len(row) + 1, n + 1):
        row = tuple(
            i * a + (2 * m - i) * b
            for i, a, b in zip(range(1, m + 1), row + (0,), (0,) + row)
        )
    _last_row = row
    return row


def triangle_rows(n_max: int) -> list[tuple[int, ...]]:
    """Rows 1..n_max, in a new list."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    return [triangle_row(n) for n in range(1, n_max + 1)]


def descent_polynomial(n: int) -> IntPolynomial:
    """The generating polynomial of row n, built by the derivative
    recurrence (independent of ``triangle_row``)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    while len(_POLYS) < n:
        prev = _POLYS[-1]
        m = len(_POLYS) + 1
        _POLYS.append(_X_MINUS_X2 * prev.derivative() + (2 * m - 1) * (_X * prev))
    return _POLYS[n - 1]


def wilf_form_check(n: int) -> bool:
    """Exact identity behind the product-derivative rearrangement of the
    polynomial recurrence.

    The rearrangement itself involves the non-polynomial factor
    (1 - x)^(1 - 2n), so the check multiplies through by (1 - x)^(2n - 1)
    and compares integer polynomials:

      P_n(x) (1-x)^(2n-2) = x (1-x)^(2n-1) P_(n-1)'(x)
                            + (2n-1) x (1-x)^(2n-2) P_(n-1)(x)
    """
    if n < 2:
        raise ValueError(f"check needs order >= 2, got {n}")
    p_prev = descent_polynomial(n - 1)
    p_cur = descent_polynomial(n)
    om_small = _ONE_MINUS_X ** (2 * n - 2)
    lhs = p_cur * om_small
    rhs = _X * (om_small * _ONE_MINUS_X) * p_prev.derivative() + (
        (2 * n - 1) * (_X * om_small * p_prev)
    )
    return lhs == rhs


@dataclass(frozen=True)
class ModeReport:
    """Where the maximal entries of row n sit, against the unit-distance
    bound around the mean statistic value."""

    order: int
    mean: Fraction
    argmax_indices: tuple[int, ...]
    predicted_indices: tuple[int, ...]

    @property
    def within_unit_of_mean(self) -> bool:
        return all(abs(self.mean - m) < 1 for m in self.argmax_indices)

    @property
    def argmax_in_predicted(self) -> bool:
        return set(self.argmax_indices) <= set(self.predicted_indices)


def locate_mode(n: int) -> ModeReport:
    """Argmax indices of row n and the predicted peak locations.

    The mean statistic value is (2n + 1)/3; real-rootedness forces every
    peak within distance 1 of it, so the predicted set is {(2n+1)/3} when
    that is an integer and {floor, ceil} otherwise. Ties are reported as a
    set, never broken.
    """
    row = triangle_row(n)
    top = max(row)
    argmax = tuple(i for i, v in enumerate(row, start=1) if v == top)
    mean = Fraction(2 * n + 1, 3)
    if mean.denominator == 1:
        predicted = (int(mean),)
    else:
        floor = int(mean)
        predicted = (floor, floor + 1)
    return ModeReport(n, mean, argmax, predicted)


# --- export formats ---------------------------------------------------------

def triangle_csv(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as CSV text with header ``n,i,count``, one row per chunk."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    yield "n,i,count\n"
    for n in range(1, n_max + 1):
        yield "".join(
            f"{n},{i},{c}\n" for i, c in enumerate(triangle_row(n), start=1)
        )


def parse_triangle_csv(text: str) -> list[tuple[int, ...]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "n,i,count":
        raise ValueError("missing 'n,i,count' header")
    rows: dict[int, dict[int, int]] = {}
    for ln in lines[1:]:
        n_s, i_s, c_s = ln.split(",")
        rows.setdefault(int(n_s), {})[int(i_s)] = int(c_s)
    out = []
    for n in range(1, len(rows) + 1):
        entries = rows[n]
        out.append(tuple(entries[i] for i in range(1, n + 1)))
    return out


def triangle_json(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as a compact JSON array of arrays, one row per chunk."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        yield ("[[" if n == 1 else ",[") + ",".join(map(str, triangle_row(n))) + "]"
    yield "]\n"


def parse_triangle_json(text: str) -> list[tuple[int, ...]]:
    return [tuple(row) for row in json.loads(text)]
