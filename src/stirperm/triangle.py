"""The descent-count triangle and its generating polynomials.

Row n is built by the integer recurrence on triangle entries,
    T(n, i) = i * T(n-1, i) + (2n - i) * T(n-1, i-1),   T(1, 1) = 1,
with out-of-range entries read as 0, and P_n(x) = sum_i T(n, i) x^i is that
row as a polynomial. Row n counts Stirling permutations of order n by number
of descents (equally: plateaux, or ascents) of the statistic value
i = 1..n; it sums to (2n - 1)!!. ``triangle_row`` remembers only the last
row it returned, so a run of calls in ascending order costs one recurrence
step each and memory stays at two rows. The certifier walks the rows
upwards.

The exact distance to the normal law, the mode and the ``normality
--plot-out`` pmf of row n need the row only up to a known error. Each is
read from an enclosure of the normalized row p_n(i) = T(n, i)/(2n - 1)!!,
a ``FixedRow`` of entries q and scale S: each entry and each prefix sum of
S p_n lies in [Q, Q + slack], Q being the matching entry or prefix sum of
q. The exact row is the enclosure with S = (2n - 1)!!, q = T(n, .) and
slack 0. ``fixed_row`` gives one with S = 2^B, B = 96 at every order, by
the exact recurrence divided by the ratio of the row sums, with each
division floored:
    q_m(i) = floor((i q_(m-1)(i) + (2m - i) q_(m-1)(i-1)) / (2m - 1)).
The weights are non-negative, so by induction each q_i is low by an error
e_i >= 0, and the errors sum to the slack 2^B - sum q_i, exact at the end.
``row_enclosures`` yields ``fixed_row(n)`` first above order
``_EXACT_FIRST_ORDERS`` = 120 (the plot always asks for a row 1074 bits
wider, at every order), then the exact row, built only if reached.
Each result has one rule that certifies it from any enclosure or moves on:
``locate_mode`` takes the indices whose entry plus the slack reaches the
top, certified when there is one or the slack is 0 (the exact tie set);
``distribution.ks_distance_exact`` and ``distribution.pmf_floats`` certify
a float where both ends of its enclosure round alike. At slack 0 every rule
certifies the exact row's result, so no result depends on the row it is
read from. A request for the remembered fixed row's order and at most its B
reads that row, whose enclosure holds whatever B is: the distance after a
plot is certified from the plot's row. The route depends on n alone, so an
ascending sweep extends the exact rows up to order 120 and the fixed rows
above it.

An entry whose two parents are 0 floors to 0, so a zeroed tail stays zero:
``fixed_row`` runs the step on the nonzero band alone, one entry wider on
the right, trims zeros at both ends and keeps the band, bit for bit that
of the full-width row, and its first value. The band is about 22 sigma wide
(255 of 1200 entries, 399 of 3000), so the row costs about n^1.5, not n^2:
65 ms at order 1200 and 0.20 s at 3000, against 0.15 and 0.87 s at full
width (2-core host). Since B is the same for every order, a row is a
function of n alone, and ``fixed_row`` continues the remembered row's band
when asked for a higher order at the same B; the result is the row a build
from row 1 gives, bit for bit. So an ascending run of orders costs one walk
to the highest: 800 -> 1200 takes 20-32 ms, against 45-70 ms from row 1.

The text writers ``triangle_csv`` and ``triangle_json`` print the rows
that ``decimal_rows`` builds: ``_extend`` run from (Decimal(1),) instead of
(1,). Printing an int takes time quadratic in its digits, and row 1000 has
entries of about 3000 digits; a Decimal is stored in base-10^19 words, so
its text takes linear time, and Python's limit on the digits of a printed
int does not apply. The steps run in a context that traps any rounding, so
a printed entry is exact or the writer raises. Rows 1..300, in process on
a 2-core host: the int rows take 0.03 s to build and 0.17 s to print, the
Decimal rows 0.06 s and 0.06 s.

The verify suite checks the rows against the derivative recurrence on the
polynomials, P_n = (x - x^2) P_(n-1)' + (2n - 1) x P_(n-1), and this module
checks them against Gessel and Stanley's definition of P_n through Stirling
numbers of the second kind,
    sum_k S(n+k, k) x^k = P_n(x) / (1 - x)^(2n+1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul
from typing import NamedTuple

from .polynomial import IntPolynomial

_last_row: tuple[int, ...] = (1,)

#: ``row_enclosures`` offers the exact row first up to this order, and the
#: fixed-point row first above it. Cold at order 100 the two routes cost
#: about the same (distance plus mode: 2.0 ms exact, 1.5 ms fixed, in process
#: on a 2-core host). The bench's clt_exact workload needs order 100's exact
#: row: its coverage guard counts calls of ``triangle_row``, not yet of
#: ``fixed_row``. Once it counts both, this order can fall to the cold tie.
_EXACT_FIRST_ORDERS = 120
#: Bits B of a fixed-point row. Step m adds less than m to the slack, so it
#: is below n(n + 1)/2, and every enclosure is narrower than 2^-65 below
#: order 2^16, 2^-73 at order 3000. With the plot's 1074 extra bits, B =
#: 1170, every enclosure below order 2^16 is narrower than 2^-1139, below
#: the least positive float. Above 2^16 the enclosures stay true bounds: a
#: wider slack can only leave a result uncertified.
_FIXED_BITS = 96


class FixedRow(NamedTuple):
    """Row ``order`` of the normalized triangle p as an enclosure: q(i) is
    ``entries[i - first]`` where the row holds i and 0 elsewhere, and scale
    p(i) and each prefix sum of scale p exceed those of q by at least 0 and
    at most ``slack``, the scale minus the sum of q. A fixed row holds its
    nonzero band; the exact row has scale (2n - 1)!!, slack 0 and all n."""

    order: int
    scale: int
    entries: tuple[int, ...]
    slack: int
    first: int = 1


_last_fixed: FixedRow | None = None


def triangle_row(n: int) -> tuple[int, ...]:
    """Entries (T(n,1), ..., T(n,n)) by the integer recurrence, extended from
    the last row returned when its order is at most n, else from row 1."""
    global _last_row
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    _last_row = _extend(_last_row if len(_last_row) <= n else (1,), n)
    return _last_row


def _extend(row: tuple, n: int) -> tuple:
    """Row n from an earlier ``row`` of ints or of integral Decimals, one
    step at a time."""
    for m in range(len(row) + 1, n + 1):
        row = tuple(
            i * a + (2 * m - i) * b
            for i, a, b in zip(range(1, m + 1), row + (0,), (0,) + row)
        )
    return row


def fixed_row(n: int, extra_bits: int = 0) -> FixedRow:
    """Row n of the normalized triangle in fixed point, with
    B = ``_FIXED_BITS`` + ``extra_bits`` bits, built on its nonzero band
    (see the module docstring). The last row returned is remembered. A
    request at its order for at most its B returns it, a later order with
    the same B continues from its band, and any other request starts from
    row 1."""
    global _last_fixed
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    scale = 1 << (_FIXED_BITS + extra_bits)
    last = _last_fixed
    if last is not None and last.order == n and last.scale >= scale:
        return last
    if last is None or last.scale != scale or last.order > n:
        last = FixedRow(1, scale, (scale,), 0)
    row, lo = list(last.entries), last.first  # entries lo .. lo + len(row) - 1
    for m in range(last.order + 1, n + 1):
        d, top = 2 * m - 1, 2 * m - lo
        row = [  # j = 2m - i
            (i * a + j * b) // d
            for i, j, a, b in zip(
                range(lo, lo + len(row) + 1), range(top, top - len(row) - 1, -1),
                row + [0], [0] + row,
            )
        ]
        while not row[-1]:
            row.pop()
        while not row[0]:
            del row[0]
            lo += 1
    _last_fixed = FixedRow(n, scale, tuple(row), scale - sum(row), lo)
    return _last_fixed


def row_enclosures(n: int, extra_bits: int = 0) -> Iterator[FixedRow]:
    """The enclosures of row n that a result tries in turn (see the module
    docstring): ``fixed_row(n, extra_bits)`` when extra bits are asked for or
    n is above ``_EXACT_FIRST_ORDERS``, then the exact row, built only if it
    is reached."""
    if extra_bits or n > _EXACT_FIRST_ORDERS:
        yield fixed_row(n, extra_bits)
    row = triangle_row(n)
    yield FixedRow(n, sum(row), row, 0)


def descent_polynomial(n: int) -> IntPolynomial:
    """P_n(x) = sum_i T(n, i) x^i, the generating polynomial of row n."""
    return IntPolynomial((0,) + triangle_row(n))


def gessel_stanley_checks(orders: Iterable[int]) -> Iterator[tuple[int, bool]]:
    """For each order n in ``orders``, in ascending order and once each,
    (n, whether P_n(x) = (1 - x)^(2n+1) sum_k S(n+k, k) x^k), the definition
    of Gessel and Stanley, with S the Stirling numbers of the second kind.

    S(n+k, k) is a polynomial in k of degree 2n, so the series times
    (1 - x)^(2n+1) is a polynomial of degree at most 2n, and its
    coefficients 0..2n, which need S(n+k, k) for k = 0..2n only, decide the
    identity. Equivalently, S(n+k, k) for k = 0..2n must equal the first
    2n + 1 coefficients of P_n / (1 - x)^(2n+1), and P_n may have degree at
    most 2n. One row S(k+d, k), k = 0..2 max(orders), is walked from d = 0
    upwards: S(k+d, k) = k S(k+d-1, k) + S(k+d-1, k-1) makes each depth the
    prefix sums of k S(k+d-1, k), and each division by (1 - x) is a prefix
    sum too, so every step is one C-level pass over plain ints.
    """
    wanted = set(orders)
    if not wanted:
        raise ValueError("check needs at least one order")
    if min(wanted) < 1:
        raise ValueError(f"check needs orders >= 1, got {min(wanted)}")
    top = max(wanted)
    for d, row in zip(range(top + 1), _stirling_rows(2 * top + 1)):
        if d in wanted:
            size = 2 * d + 1
            # P_d / (1 - x)^(2d+1) up to degree 2d, as 2d + 1 chained lazy
            # prefix sums, so one quotient list is built; a P_d of higher
            # degree leaves the quotient longer than the row, so it fails
            coefficients = descent_polynomial(d).coefficients
            quotient = chain(coefficients, repeat(0, size - len(coefficients)))
            for _ in range(size):
                quotient = accumulate(quotient)
            yield d, row[:size] == list(quotient)


def _stirling_rows(width: int) -> Iterator[list[int]]:
    """[S(k+d, k) for k in range(width)] for d = 0, 1, 2, ...: each row is
    the prefix sums of k times the row before, which gives S(d, 0) = 0."""
    row = [1] * width  # S(k, k) = 1
    while True:
        yield row
        row = list(accumulate(map(mul, range(width), row)))


def gessel_stanley_check(n: int) -> bool:
    """Whether P_n satisfies the Gessel-Stanley identity at order n alone;
    see ``gessel_stanley_checks``."""
    return next(gessel_stanley_checks((n,)))[1]


class ModeReport(NamedTuple):
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
    set, never broken. The argmax is read from the first of
    ``row_enclosures(n)`` that certifies it.
    """
    argmax = next(a for a in map(_argmax, row_enclosures(n)) if a is not None)
    mean = Fraction(2 * n + 1, 3)
    if mean.denominator == 1:
        predicted = (int(mean),)
    else:
        floor = int(mean)
        predicted = (floor, floor + 1)
    return ModeReport(n, mean, argmax, predicted)


def _argmax(row: FixedRow) -> tuple[int, ...] | None:
    """The indices i with q_i + slack >= max q, those whose exact entry may
    be the largest: each exceeds its entry q_i by at most the slack. They
    are the exact row's argmax when there is one of them or the slack is 0;
    None otherwise."""
    least = max(row.entries) - row.slack
    if least <= 0 < row.order - len(row.entries):
        return None  # every q_i = 0 outside the band reaches the top too
    argmax = tuple(i for i, q in enumerate(row.entries, start=row.first) if q >= least)
    return argmax if len(argmax) == 1 or not row.slack else None


# --- export formats ---------------------------------------------------------

#: Decimal arithmetic that is exact or raises: any rounding traps
_EXACT_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def decimal_rows(n_max: int) -> Iterator[tuple[Decimal, ...]]:
    """Rows 1..n_max as exact integral Decimals, by ``_extend`` from
    (Decimal(1),): the rows the text writers print. The exact context is
    entered around each step alone, so a suspended generator leaves the
    caller's context as it was."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    row = (Decimal(1),)
    for n in range(1, n_max + 1):
        with localcontext(_EXACT_DECIMAL):
            row = _extend(row, n)
        yield row


def triangle_csv(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as CSV text with header ``n,i,count``, one row per chunk."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    yield "n,i,count\n"
    for n, row in enumerate(decimal_rows(n_max), start=1):
        yield "".join(f"{n},{i},{c}\n" for i, c in enumerate(row, start=1))


def triangle_json(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as a compact JSON array of arrays, one row per chunk."""
    for n, row in enumerate(decimal_rows(n_max), start=1):
        yield ("[[" if n == 1 else ",[") + ",".join(map(str, row)) + "]"
    yield "]\n"
