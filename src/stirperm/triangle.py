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

Entry i of row m reads only entries i - 1 and i of row m - 1, so a large
extension is split between two processes when at least two CPUs are
usable: this one computes entries 1..k of every row and hands T(m, k) row
by row to a helper, a bare ``python -I -S`` running ``rowstep.py``, which
computes entries k+1..m and returns row n's. Both run the same recurrence
step on the same integers, so the row is bit-identical to the serial one.
Whether to split depends only on the two orders and the CPU count (see
``_SPLIT_WORK``). If the helper cannot start, exits nonzero or replies
short or malformed, the row is computed here from the same starting row,
and the helper has always been reaped before ``triangle_row`` returns.

The exact distance to the normal law and the mode of row n need the row
only up to a known error, so where extending the exact rows to n would cost
more than ``_FIXED_WORK`` n^2 units, they are read from a fixed-point row.
``fixed_row`` scales the normalized row p_n(i) = T(n, i)/(2n - 1)!! by 2^B,
B = 64 + 2 max(16, bitlen(n)), which is 96 at every order below 2^16, and
runs the exact recurrence divided by the ratio of the row sums, with each
division floored:
    q_m(i) = floor((i q_(m-1)(i) + (2m - i) q_(m-1)(i-1)) / (2m - 1)).
The weights are non-negative, so by induction each q_i is low by an error
e_i >= 0, and the errors sum to delta = 2^B - sum q_i, which is exact at the
end. So each entry and each prefix sum of 2^B p_n lies in [Q, Q + delta],
where Q is the matching entry or prefix sum of q. The argmax is certified
when the top q_i beats every other entry by more than delta;
``distribution.ks_distance_exact`` certifies its float from the same
enclosure. Whatever is not certified is computed from the exact row, so no
result depends on the route. Ascending sweeps in steps of up to about 40
orders extend ``_last_row`` on the exact route.

An entry whose two parents are 0 floors to 0, so a zeroed tail stays zero:
``fixed_row`` runs the step on the nonzero band alone, one entry wider on
the right, trims zeros at both ends and pads the band to the full-width row,
bit for bit. The band is about 21 sigma wide (239 of 1200 entries, 379 of
3000), so the row costs about n^1.5, not n^2: 65 ms at order 1200 and 0.20 s
at 3000, against 0.15 and 0.87 s at full width (2-core host). Since B is the
same for every order below 2^16, a row is a function of n alone, and
``fixed_row`` continues the remembered row's band when asked for a higher
order at the same B; the result is the row a build from row 1 gives, bit
for bit. So an ascending run of orders costs one walk to the highest:
800 -> 1200 takes 20-32 ms, against 45-70 ms from row 1.

The verify suite checks the rows against the derivative recurrence on the
polynomials, P_n = (x - x^2) P_(n-1)' + (2n - 1) x P_(n-1), and this module
checks them against Gessel and Stanley's definition of P_n through Stirling
numbers of the second kind,
    sum_k S(n+k, k) x^k = P_n(x) / (1 - x)^(2n+1).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul
from typing import NamedTuple

from .polynomial import IntPolynomial
from .rowstep import read_int, step, write_int

_last_row: tuple[int, ...] = (1,)

#: Extending row m0 to row n costs about n^3 - m0^3 units (row m has m
#: entries of about m bits); above this many units a helper process takes
#: the right block. Measured on a 2-core host whose second core is often
#: busy, where ``python -I -S`` starts in 20-30 ms, one process / split:
#: rows 1 -> 600 (2.2e8 units) 0.12-0.17 / 0.12-0.20 s; 400 -> 800 (4.5e8)
#: 0.30-0.34 / 0.17-0.20 s with the second core free, 0.34-0.35 s without;
#: 800 -> 1200 (1.2e9) 0.65-1.1 / 0.47-0.57 s free, 0.70-0.98 s without.
_SPLIT_WORK = 3 * 10**8
_HELPER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rowstep.py")
#: The distance and the mode of row n are read from its fixed-point row when
#: the exact rows would take more than this many times n^2 units to extend.
#: The banded row costs about n^1.5, so a threshold on the units alone would
#: send short extensions at large n to the dearer route. Distance plus mode,
#: exact / fixed, medians of 7 in process on the host of ``_SPLIT_WORK``:
#: row 100 from 90 (27 n^2 units) 0.4 / 0.9 ms, from 1 (100 n^2) 2.0 / 1.5 ms;
#: row 200 from 180 (54 n^2) 1.6 / 2.6 ms, from 100 (175 n^2) 6.9 / 4.0 ms;
#: row 600 from 570 (86 n^2) 14 / 14 ms; row 1200 from 1180 (59 n^2) 40 /
#: 41 ms, from 1150 (144 n^2) 105 / 51 ms, from 1100 (276 n^2) 179 / 65 ms.
#: The routes tie at 60-90 n^2. The threshold sits just above that, so that
#: a cold request up to order 120 still reads the exact row, which the
#: bench's clt_exact workload traces at order 100; one-step ascending
#: sweeps (3 n^2) stay exact by a wide margin.
_FIXED_WORK = 120
#: Bits of a fixed-point row beyond 2 max(16, bitlen(n)). Step m adds less
#: than m to delta, so delta < n(n + 1)/2 < 2^(2 bitlen(n) - 1), and every
#: enclosure is narrower than 2^-65; below order 2^16, where B = 96, it is
#: narrower than 2^(2 bitlen(n) - 97), 2^-73 at order 3000.
_FIXED_GUARD_BITS = 64


class FixedRow(NamedTuple):
    """Row ``order`` of the normalized triangle p in fixed point: 2^bits p(i)
    and each prefix sum of 2^bits p exceed their counterparts in ``entries``
    by at least 0 and at most ``slack``, 2^bits minus the sum of the
    entries."""

    order: int
    bits: int
    entries: tuple[int, ...]
    slack: int


_last_fixed: FixedRow | None = None


def triangle_row(n: int) -> tuple[int, ...]:
    """Entries (T(n,1), ..., T(n,n)) by the integer recurrence, extended from
    the last row returned when its order is at most n, else from row 1."""
    global _last_row
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    row = _last_row if len(_last_row) <= n else (1,)
    if n**3 - len(row) ** 3 > _SPLIT_WORK and _usable_cpus() > 1:
        # k balances the bits the two blocks compute: 5n/13 from row 1, 523
        # for 800 -> 1200. None when the helper fails, and this process then
        # extends the same starting row alone.
        row = _extend_split(row, n, (5 * n + len(row)) // 13) or _extend(row, n)
    else:
        row = _extend(row, n)
    _last_row = row
    return row


def _extend(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n from an earlier ``row``, one step at a time."""
    for m in range(len(row) + 1, n + 1):
        row = step(m, range(1, m + 1), row)
    return row


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _extend_split(row: tuple[int, ...], n: int, k: int) -> tuple[int, ...] | None:
    """Row n from an earlier ``row`` (1 <= k < n): entries 1..k here and
    entries k+1..n in a helper process running ``rowstep.py``, which gets
    T(m, k) from here row by row. None when the helper cannot start, exits
    nonzero or replies short or malformed. The helper has been reaped by the
    time this returns."""
    import subprocess

    start = max(len(row), k)
    try:
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", _HELPER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return None
    send = helper.stdin
    try:
        for m in range(len(row) + 1, start + 1):  # rows that lie wholly left of k
            row = step(m, range(1, m + 1), row)
        for value in (n, k, start, *row[k:], row[k - 1]):
            write_int(send, value)
        left = row[:k]
        for m in range(start + 1, n + 1):
            send.flush()  # T(m-1, k) goes out before this row's work
            left = step(m, range(1, k + 1), left)
            if m < n:
                write_int(send, left[-1])
        send.close()
        right = tuple(read_int(helper.stdout) for _ in range(n - k))
        if helper.stdout.read(1) or helper.wait() != 0:
            return None
    except (OSError, EOFError):
        return None
    finally:
        if helper.poll() is None:
            helper.kill()
        helper.wait()
        for pipe in (send, helper.stdout):
            try:
                pipe.close()
            except OSError:  # bytes the helper never read
                pass
    return left + right


def fixed_row(n: int) -> FixedRow:
    """Row n of the normalized triangle in fixed point, with
    B = ``_FIXED_GUARD_BITS`` + 2 max(16, bitlen(n)) bits, built on its
    nonzero band (see the module docstring). The last row returned is
    remembered, and a later order with the same B continues from its band;
    any other request starts from row 1."""
    global _last_fixed
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    bits = _FIXED_GUARD_BITS + 2 * max(16, n.bit_length())
    last = _last_fixed
    if last is None or last.bits != bits or last.order > n:
        last = FixedRow(1, bits, (1 << bits,), 0)
    elif last.order == n:
        return last
    row = list(last.entries)  # trimmed to the band: entries lo .. lo + len(row) - 1
    lo = row.index(next(filter(None, row))) + 1
    del row[: lo - 1]
    while not row[-1]:
        row.pop()
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
    entries = (0,) * (lo - 1) + tuple(row) + (0,) * (n + 1 - lo - len(row))
    _last_fixed = FixedRow(n, bits, entries, (1 << bits) - sum(row))
    return _last_fixed


def fixed_route(n: int) -> FixedRow | None:
    """``fixed_row(n)`` when extending the exact rows to n would cost more
    than ``_FIXED_WORK`` n^2 units, else None."""
    start = len(_last_row) if len(_last_row) <= n else 1
    return fixed_row(n) if n**3 - start**3 > _FIXED_WORK * n**2 else None


def triangle_rows(n_max: int) -> list[tuple[int, ...]]:
    """Rows 1..n_max, in a new list."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    return [triangle_row(n) for n in range(1, n_max + 1)]


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
    set, never broken. The argmax is read from ``fixed_route(n)`` where it
    is certified there, and from the exact row otherwise.
    """
    fixed = fixed_route(n)
    argmax = None if fixed is None else _certified_argmax(fixed)
    if argmax is None:
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


def _certified_argmax(row: FixedRow) -> tuple[int, ...] | None:
    """The exact row's argmax, when the top entry of ``row`` beats every
    other by more than the slack: each exact entry exceeds its fixed-point
    entry by at most the slack. None otherwise."""
    entries = row.entries
    top = max(entries)
    runner_up = max((v for v in entries if v != top), default=-1)
    if entries.count(top) == 1 and top - runner_up > row.slack:
        return (entries.index(top) + 1,)
    return None


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


def triangle_json(n_max: int) -> Iterator[str]:
    """Rows 1..n_max as a compact JSON array of arrays, one row per chunk."""
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        yield ("[[" if n == 1 else ",[") + ",".join(map(str, triangle_row(n))) + "]"
    yield "]\n"
