"""Exact certificates that each descent polynomial P_n has n distinct real
non-positive roots and that the roots of consecutive ones interlace.

The proof is sign alternation plus the degree count: R_n = P_n / x has
degree n - 1, so if it strictly alternates in sign (each sign exact, by
``sign_at``) at n rationals -B_n = t_0 < ... < t_(n-1) = 0, each bracket
(t_j, t_(j+1)) holds exactly one root of R_n. After the source paper's
induction, bracket j of order n-1, around a root of R_(n-1), is bisected on
the sign of R_(n-1) until R_n has at both ends the sign wanted at t_j. Its
lower end is then t_j, it separates that root from those of R_n, and R_n
changes sign across each gap between separators: by the degree count again,
the roots of R_n and R_(n-1) strictly interlace. No floats appear.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from .polynomial import IntPolynomial
from .triangle import descent_polynomial

_GUARD = 256  # bisection steps around one root before declaring failure

#: order -> (points t_j, upper ends of the separators); filled in order
_WITNESSES: dict[int, tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = {}


class CertificationError(RuntimeError):
    """A certification check failed; ``report`` says which and how."""

    def __init__(self, report: dict):
        super().__init__(json.dumps(report, sort_keys=True, default=str))
        self.report = report


def _fail(order: int, stage: str, expected, observed):
    report = {"order": order, "stage": stage, "expected": expected, "observed": observed}
    raise CertificationError(report)


def _sign(p: IntPolynomial, x: Fraction) -> int:
    return p.sign_at(x.numerator, x.denominator)


def _floor_log2(q: Fraction) -> int:  # q > 0
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return e if Fraction(2) ** e <= q else e - 1


def _split(lo: Fraction, hi: Fraction) -> Fraction:
    """A point inside (lo, hi), lo < hi <= 0: a power of two across more than
    two binades, else the smallest-denominator rational in the middle half."""
    if hi == 0 or lo < 4 * hi:
        a = _floor_log2(-lo)
        b = _floor_log2(-hi) if hi else min(-1, 3 * a - 3)  # as if hi were tiny
        return -Fraction(2) ** ((a + b + 1) // 2)
    # continued fractions of [x, y], the negated middle half
    x, y = (3 * hi + lo) / -4, (hi + 3 * lo) / -4
    terms = []
    while (whole := x.numerator // x.denominator) != x and whole + 1 > y:
        terms.append(whole)
        x, y = 1 / (y - whole), 1 / (x - whole)
    simplest = Fraction(whole if whole == x else whole + 1)
    for whole in reversed(terms):
        simplest = whole + 1 / simplest
    return -simplest


def _witnesses(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Points t_j of order n and the upper ends of the separators at them."""
    for m in range(len(_WITNESSES) + 1, n + 1):
        cur = descent_polynomial(m).divide_by_x()
        if cur.degree() != m - 1:
            _fail(m, "degree of P_n / x", m - 1, cur.degree())
        if m == 1:
            _WITNESSES[1] = (Fraction(0),), ()
            continue
        prev, below = descent_polynomial(m - 1).divide_by_x(), _WITNESSES[m - 1][0]
        cauchy = 1 + Fraction(max(map(abs, cur.coefficients)), abs(cur.coefficients[-1]))
        t_0 = below[0] or Fraction(-1)
        while t_0 > -cauchy and _sign(cur, t_0) != (-1) ** (m - 1):
            t_0 = max(2 * t_0, -cauchy)  # each root r of R_n has |r| < cauchy
        at_below, separators = [_sign(cur, x) for x in below], []
        for j in range(1, m - 1):
            # R_(n-1): one root in ends, sign `want` at ends[0] (R_n's at the root)
            want = (-1) ** (m - 1 - j)
            ends, at = [below[j - 1], below[j]], at_below[j - 1:j + 1]
            for _ in range(_GUARD):
                if at == [want, want]:
                    break
                mid = _split(*ends)
                if (s_prev := _sign(prev, mid)) == 0:  # the root of R_(n-1): step off
                    mid = _split(mid, ends[1])
                    s_prev = _sign(prev, mid)
                side = int(s_prev != want)
                ends[side], at[side] = mid, _sign(cur, mid)
            else:
                _fail(m, f"signs around root {j} of P_(n-1) / x", [want, want], at)
            separators.append(ends)
        for x, want in ((t_0, (-1) ** (m - 1)), (Fraction(0), 1)):
            if (observed := _sign(cur, x)) != want:
                _fail(m, f"sign of P_n / x at {x}", want, observed)
        points = (t_0, *(lo for lo, _ in separators), Fraction(0))
        _WITNESSES[m] = points, tuple(hi for _, hi in separators)
    return _WITNESSES[n]


@dataclass(frozen=True)
class RealRootCertificate:
    """P_n has n distinct real roots, none positive, one in each (lo, hi]."""

    order: int
    distinct_real_root_count: int
    all_nonpositive: bool
    squarefree: bool
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...]


def certify_real_roots(n: int, width: Fraction | None = None) -> RealRootCertificate:
    """Certify P_n: brackets (t_j, t_(j+1)], with (u, 0], u = -2^-k, split off
    for the root at 0. ``width`` narrows them by bisecting on P_n's sign."""
    if n < 1 or (width is not None and width <= 0):
        raise ValueError(f"need order >= 1 and width > 0, got {n} and {width}")
    points, p = _witnesses(n)[0], descent_polynomial(n)
    k = 0 if n == 1 else max(0, 1 - _floor_log2(-points[-2]))
    while _sign(p, -Fraction(1, 2**k)) >= 0:  # P_n = x R_n: R_n(u) > 0
        k += 1
    ends = points[:-1] + (-Fraction(1, 2**k), Fraction(0))
    intervals = list(zip(ends, ends[1:]))
    for i, (lo, hi) in enumerate(intervals if width is not None else ()):
        s_lo = _sign(p, lo)
        while hi - lo > width:  # one root stays in (lo, hi], P_n(lo) != 0
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _sign(p, mid) == s_lo else (lo, mid)
        intervals[i] = (lo, hi)
    return RealRootCertificate(n, n, True, True, tuple(intervals))


@dataclass(frozen=True)
class GapWitness:
    """R_n changes sign across the gap (lower, upper) between separators."""

    lower: Fraction
    upper: Fraction
    sign_at_lower: int
    sign_at_upper: int
    root_count: int  # roots of R_n in the gap: 1 by the degree count


@dataclass(frozen=True)
class InterlaceCertificate:
    order: int
    verified: bool
    witnesses: tuple[GapWitness, ...]
    failure: str | None = None  # always None: a failed check raises instead


def interlace_certificate(n: int) -> InterlaceCertificate:
    """Certify that the roots of R_n and R_(n-1) strictly interlace."""
    if n < 2:
        raise ValueError(f"interlacing needs order >= 2, got {n}")
    if n == 2:  # R_1 is the constant 1: nothing to interlace with
        return InterlaceCertificate(order=2, verified=True, witnesses=())
    points, uppers = _witnesses(n)
    witnesses = tuple(
        GapWitness(lo, hi, (-1) ** (n - 1 - g), (-1) ** (n - 2 - g), 1)
        for g, (lo, hi) in enumerate(zip(points[:1] + uppers, points[1:]))
    )
    return InterlaceCertificate(n, True, witnesses)


def _pair(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def real_root_certificate_payload(cert: RealRootCertificate) -> dict:
    ok = cert.distinct_real_root_count == cert.order
    ok = ok and cert.all_nonpositive and cert.squarefree
    intervals = [_pair(lo) + _pair(hi) for lo, hi in cert.isolating_intervals]
    return {"n": cert.order, "count": cert.distinct_real_root_count,
            "squarefree": cert.squarefree, "intervals": intervals, "verified": ok}


def interlace_certificate_payload(cert: InterlaceCertificate) -> dict:
    witnesses = [{**asdict(w), "lower": _pair(w.lower), "upper": _pair(w.upper)}
                 for w in cert.witnesses]
    return {"n": cert.order, "verified": cert.verified, "witnesses": witnesses}


def real_root_certificate_json(cert: RealRootCertificate) -> str:
    payload = real_root_certificate_payload(cert)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def interlace_certificate_json(cert: InterlaceCertificate) -> str:
    payload = interlace_certificate_payload(cert)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
