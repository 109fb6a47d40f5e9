"""Exact certificates that each descent polynomial P_n has n distinct real
non-positive roots and that the roots of consecutive ones interlace.

The proof is sign alternation plus the degree count: R_n = P_n / x has
degree n - 1, so if it strictly alternates in sign (each sign exact, by
``sign_at``) at n rationals t_0 < ... < t_(n-1) = 0, each bracket
(t_j, t_(j+1)) holds exactly one root of R_n. After the source paper's
induction, bracket j of order n-1, around a root of R_(n-1), is bisected on
the sign of R_(n-1) until R_n has at both ends the sign wanted at t_j. Its
lower end is then t_j, it separates that root from those of R_n, and R_n
changes sign across each gap between separators: by the degree count again,
the roots of R_n and R_(n-1) strictly interlace. No floats appear.

Every point is a dyadic rational a / 2^k, held as the integer pair (a, k)
while witnesses are built. A bracket is split at a power of two when its
ends lie more than two binades apart, else at the dyadic with the fewest
bits in its middle half; both come from bit lengths and one xor. t_0 is a
power of two, doubled from order n-1's until R_n has the right sign, and
at most the first power of two at or above Cauchy's root bound. Each sign
is taken at the pair (a, k) itself: ``sign_at`` shifts instead of multiplying.
Each sign is taken once: order n keeps R_n's sign at every point it tried,
and order n+1, which bisects R_n at many of the same points, reads them
back, but only while the kept polynomial is the R_n it bisects. Points
become ``Fraction`` only when a certificate is built, once for both
certificates of an order; the midpoints that ``width`` refinement adds are
dyadic too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .polynomial import IntPolynomial
from .triangle import descent_polynomial, triangle_row

_GUARD = 256  # bisection steps around one root before declaring failure

#: a dyadic rational a / 2^k as the pair (a, k), a odd unless k == 0
Dyadic = tuple[int, int]

#: order -> (points t_j, upper ends of the separators); filled in order
_WITNESSES: dict[int, tuple[tuple[Dyadic, ...], tuple[Dyadic, ...]]] = {}

#: (R_n, its sign at every point where the walk took it) for the last order
#: built; order n+1 bisects R_n at many of the same points. The polynomial
#: guards against a map left by another walk (a failed or patched one).
_CARRIED: tuple[IntPolynomial, dict[Dyadic, int]] = IntPolynomial(), {}


class CertificationError(RuntimeError):
    """A certification check failed; ``report`` says which and how."""

    def __init__(self, report: dict):
        super().__init__(", ".join(f"{key}: {report[key]}" for key in sorted(report)))
        self.report = report


def _fail(order: int, stage: str, expected, observed):
    report = {"order": order, "stage": stage, "expected": expected, "observed": observed}
    raise CertificationError(report)


def _sign(p: IntPolynomial, x: Dyadic, signs: dict[Dyadic, int]) -> int:
    """p's sign at x, taken once: ``signs`` holds p's signs found so far."""
    if (s := signs.get(x)) is None:
        s = signs[x] = p.sign_at(x[0], shift=x[1])
    return s


def _fraction(x: Dyadic) -> Fraction:
    return Fraction(x[0], 1 << x[1])


@lru_cache(maxsize=8)
def _fractions(xs: tuple[Dyadic, ...]) -> tuple[Fraction, ...]:
    """``xs`` as Fractions, built once for the certificates of one order."""
    return tuple(map(_fraction, xs))


def _split(lo: Dyadic, hi: Dyadic) -> Dyadic:
    """A point inside (lo, hi), lo < hi <= 0: a power of two across more than
    two binades, else the shortest dyadic in the middle half."""
    (a, j), (b, k) = lo, hi
    e = max(j, k)
    lo_e, hi_e = a << (e - j), b << (e - k)  # both ends over 2^e
    if b == 0 or lo_e < 4 * hi_e:
        top = (-a).bit_length() - 1 - j  # floor(log2(-lo))
        low = (-b).bit_length() - 1 - k if b else min(-1, 3 * top - 3)  # as if hi were tiny
        half = (top + low + 1) // 2
        return (-(1 << half), 0) if half >= 0 else (-1, -half)
    # magnitudes of the middle half's ends, over 2^(e+2): u < v
    u, v = -(lo_e + 3 * hi_e), -(3 * lo_e + hi_e)
    d = (u ^ v).bit_length() - 1  # the highest bit in which they differ
    num, exp = -(v >> d), e + 2 - d  # v with every bit below d cleared
    return (num, exp) if exp >= 0 else (num << -exp, 0)


def _witnesses(n: int) -> tuple[tuple[Dyadic, ...], tuple[Dyadic, ...]]:
    """Points t_j of order n and the upper ends of the separators at them."""
    global _CARRIED
    done = len(_WITNESSES)
    # ascending rows: each is one step of the builder's memo from the last
    cur = IntPolynomial(triangle_row(done)) if 0 < done < n else None
    for m in range(done + 1, n + 1):
        prev, cur = cur, IntPolynomial(triangle_row(m))  # R_(n-1), R_n = P_n / x
        if cur.degree() != m - 1:
            _fail(m, "degree of P_n / x", m - 1, cur.degree())
        if m == 1:
            _WITNESSES[1] = ((0, 0),), ()
            continue
        below = _WITNESSES[m - 1][0]
        at_prev = _CARRIED[1] if _CARRIED[0] == prev else {}
        _CARRIED = cur, (at_cur := {})
        # each root r of R_n has |r| < 1 + biggest / lead <= 2^e = cap
        lead = abs(cur.coefficients[-1])
        biggest = max(map(abs, cur.coefficients))
        cap = 1 << (-(-biggest // lead)).bit_length()
        t_0 = below[0][0] or -1  # -2^e: order n-1's t_0, or -1 at order 2
        while -t_0 < cap and _sign(cur, (t_0, 0), at_cur) != (-1) ** (m - 1):
            t_0 *= 2
        at_below, separators = [_sign(cur, x, at_cur) for x in below], []
        for j in range(1, m - 1):
            # R_(n-1): one root in ends, sign `want` at ends[0] (R_n's at the root)
            want = (-1) ** (m - 1 - j)
            ends, at = [below[j - 1], below[j]], at_below[j - 1:j + 1]
            for _ in range(_GUARD):
                if at == [want, want]:
                    break
                mid = _split(*ends)
                if (s_prev := _sign(prev, mid, at_prev)) == 0:  # the root of R_(n-1): step off
                    mid = _split(mid, ends[1])
                    s_prev = _sign(prev, mid, at_prev)
                side = int(s_prev != want)
                ends[side], at[side] = mid, _sign(cur, mid, at_cur)
            else:
                _fail(m, f"signs around root {j} of P_(n-1) / x", [want, want], at)
            separators.append(ends)
        for x, want in (((t_0, 0), (-1) ** (m - 1)), ((0, 0), 1)):
            if (observed := _sign(cur, x, at_cur)) != want:
                _fail(m, f"sign of P_n / x at {_fraction(x)}", want, observed)
        points = ((t_0, 0), *(lo for lo, _ in separators), (0, 0))
        _WITNESSES[m] = points, tuple(hi for _, hi in separators)
    return _WITNESSES[n]


class RealRootCertificate(NamedTuple):
    """P_n has n distinct real roots, none positive, one in each (lo, hi]."""

    order: int
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...]


def certify_real_roots(n: int, width: Fraction | None = None) -> RealRootCertificate:
    """Certify P_n: brackets (t_j, t_(j+1)], with (u, 0], u = -2^-k, split off
    for the root at 0. ``width`` narrows them by bisecting on P_n's sign,
    taken at the midpoints alone: the witnesses' alternation gives it at
    every lower end, so a bracket at most ``width`` wide takes no sign."""
    if n < 1 or (width is not None and not width > 0):  # NaN is no width
        raise ValueError(f"need order >= 1 and width > 0, got {n} and {width}")
    points, p = _witnesses(n)[0], descent_polynomial(n)
    k = 0  # first try k = 1 - floor(log2(-t_(n-2))), t_(n-2) = a / 2^j
    if n > 1:
        a, j = points[-2]
        k = max(0, j + 2 - (-a).bit_length())
    while p.sign_at(-1, shift=k) >= 0:  # P_n = x R_n: R_n(u) > 0
        k += 1
    ends = [*_fractions(points)[:-1], _fraction((-1, k)), Fraction(0)]
    intervals = list(zip(ends, ends[1:]))
    for i, (lo, hi) in enumerate(intervals if width is not None else ()):
        # P_n = x R_n has sign (-1)^(n-i) at t_i < 0, and at u < 0 (i = n - 1)
        s_lo = -1 if (n - i) % 2 else 1
        while hi - lo > width:  # one root stays in (lo, hi], P_n(lo) != 0
            mid = (lo + hi) / 2
            s_mid = p.sign_at(mid.numerator, shift=mid.denominator.bit_length() - 1)
            lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
        intervals[i] = (lo, hi)
    return RealRootCertificate(n, tuple(intervals))


class GapWitness(NamedTuple):
    """R_n changes sign across the gap (lower, upper) between separators, so
    the gap holds one root of R_n: the degree count leaves no room for more."""

    lower: Fraction
    upper: Fraction
    sign_at_lower: int
    sign_at_upper: int


class InterlaceCertificate(NamedTuple):
    order: int
    verified: bool  # always True: a failed check raises
    witnesses: tuple[GapWitness, ...]


def interlace_certificate(n: int) -> InterlaceCertificate:
    """Certify that the roots of R_n and R_(n-1) strictly interlace."""
    if n < 2:
        raise ValueError(f"interlacing needs order >= 2, got {n}")
    if n == 2:  # R_1 is the constant 1: nothing to interlace with
        return InterlaceCertificate(order=2, verified=True, witnesses=())
    points, uppers = map(_fractions, _witnesses(n))
    witnesses = tuple(
        GapWitness(lo, hi, (-1) ** (n - 1 - g), (-1) ** (n - 2 - g))
        for g, (lo, hi) in enumerate(zip(points[:1] + uppers, points[1:]))
    )
    return InterlaceCertificate(n, True, witnesses)
