import functools
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sturm_oracle import (
    SturmChain,
    count_real_roots,
    isolate_roots,
    primitive,
    pseudo_remainder,
    refine_interval,
    root_magnitude_bound,
    sign_at,
    sign_towards_infinity,
)

import stirperm.sturm as sturm_module
from stirperm.polynomial import IntPolynomial
from stirperm.sturm import (
    CertificationError,
    certify_real_roots,
    interlace_certificate,
)
from stirperm.triangle import descent_polynomial, triangle_row

X = IntPolynomial([0, 1])


def _exact_remainder(a, b):
    """Rational-arithmetic polynomial remainder, as an independent check."""
    ra = [Fraction(c) for c in a.coefficients]
    rb = [Fraction(c) for c in b.coefficients]
    while len(ra) - 1 >= len(rb) - 1 and any(ra):
        while ra and ra[-1] == 0:
            ra.pop()
        if len(ra) < len(rb):
            break
        factor = ra[-1] / rb[-1]
        shift = len(ra) - len(rb)
        for i, c in enumerate(rb):
            ra[shift + i] -= factor * c
        ra.pop()
    while ra and ra[-1] == 0:
        ra.pop()
    return ra


@pytest.mark.parametrize(
    "a,b",
    [
        (IntPolynomial([0, 1, 2]), IntPolynomial([1, 4])),
        (IntPolynomial([3, -2, 0, 5]), IntPolynomial([-1, 2, -7])),
        (IntPolynomial([1, 1, 1, 1, 1]), IntPolynomial([2, -3])),
        (IntPolynomial([4, 0, -6, 1]), IntPolynomial([0, 0, -2])),
    ],
)
def test_pseudo_remainder_has_exact_remainder_signs(a, b):
    rem = pseudo_remainder(a, b)
    exact = _exact_remainder(a, b)
    for point in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 3)):
        exact_value = sum(c * point**i for i, c in enumerate(exact))
        sign = (exact_value > 0) - (exact_value < 0)
        assert sign_at(rem, point) == sign


@given(
    st.lists(st.integers(-(10**20), 10**20), max_size=12).map(IntPolynomial),
    st.fractions(max_denominator=10**6),
)
def test_oracle_sign_matches_the_fraction_horner(p, x):
    value = p(x)
    assert sign_at(p, x) == (value > 0) - (value < 0)


def test_sign_towards_infinity():
    p = IntPolynomial([0, 0, 0, -2])  # -2x^3
    assert sign_towards_infinity(p, positive=True) == -1
    assert sign_towards_infinity(p, positive=False) == 1


def test_primitive_keeps_signs():
    p = IntPolynomial([-6, 0, 9])
    assert primitive(p) == IntPolynomial([-2, 0, 3])
    assert primitive(IntPolynomial([5, -7])) == IntPolynomial([5, -7])


def test_chain_of_x():
    chain = SturmChain(X)
    assert [p.coefficients for p in chain.polynomials] == [(0, 1), (1,)]


def test_chain_of_squarefree_quadratic_ends_in_constant():
    chain = SturmChain(IntPolynomial([0, 1, 2]))  # x(2x + 1), distinct roots
    assert chain.is_squarefree()
    assert chain.polynomials[-1].degree() == 0


def test_chain_of_repeated_root_ends_above_constant():
    chain = SturmChain(IntPolynomial([0, 0, 1]))  # x^2
    assert not chain.is_squarefree()
    assert chain.polynomials[-1].degree() == 1


def test_chain_rejects_zero():
    with pytest.raises(ValueError):
        SturmChain(IntPolynomial())


def test_count_real_roots_examples():
    assert count_real_roots(IntPolynomial([0, 1, 2]), None, Fraction(0)) == 2
    assert count_real_roots(IntPolynomial([0, 1, 8, 6]), None, Fraction(0)) == 3
    assert count_real_roots(IntPolynomial([1, 0, 1])) == 0
    assert count_real_roots(IntPolynomial([0, 0, 1])) == 1  # distinct count
    assert count_real_roots(IntPolynomial([-4, 0, 1]), Fraction(0), None) == 1


def test_count_interval_endpoints_are_half_open():
    p = X  # single root at 0
    assert count_real_roots(p, Fraction(-1), Fraction(0)) == 1  # includes 0
    assert count_real_roots(p, Fraction(0), Fraction(1)) == 0  # excludes 0
    with pytest.raises(ValueError):
        count_real_roots(p, Fraction(1), Fraction(0))


def test_root_magnitude_bound_brackets_roots():
    p = IntPolynomial([-6, 1, 1])  # roots 2 and -3
    bound = root_magnitude_bound(p)
    assert bound > 3
    assert count_real_roots(p, -bound, bound) == 2


def test_isolate_roots_against_known_roots():
    # (x + 3)(2x + 1)x = 2x^3 + 7x^2 + 3x has roots -3, -1/2, 0
    p = IntPolynomial([0, 3, 7, 2])
    chain = SturmChain(p)
    intervals = isolate_roots(chain, Fraction(-10), Fraction(0))
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, (Fraction(-3), Fraction(-1, 2), 0)):
        assert lo < root <= hi


def test_refine_interval_narrows_and_keeps_root():
    p = IntPolynomial([-2, 0, 1])  # sqrt(2) in (1, 2]
    chain = SturmChain(p)
    lo, hi = refine_interval(chain, Fraction(1), Fraction(2), Fraction(1, 1000))
    assert hi - lo <= Fraction(1, 1000)
    assert chain.count_roots(lo, hi) == 1
    assert lo < Fraction(141421, 100000) < hi


def test_certificate_order_one_and_two():
    (lo, hi), = certify_real_roots(1).isolating_intervals
    assert lo < 0 <= hi
    first, second = certify_real_roots(2).isolating_intervals
    assert first[0] < Fraction(-1, 2) <= first[1]
    assert second[0] < Fraction(0) <= second[1]


def test_certificate_order_five():
    cert = certify_real_roots(5)
    assert len(cert.isolating_intervals) == 5
    bound = root_magnitude_bound(descent_polynomial(5))
    for lo, hi in cert.isolating_intervals:
        assert -bound <= lo < hi <= 0


def test_certificate_intervals_disjoint_with_sign_change():
    cert = certify_real_roots(9)
    p = descent_polynomial(9)
    intervals = cert.isolating_intervals
    for i in range(len(intervals) - 1):
        assert intervals[i][1] <= intervals[i + 1][0]
    for lo, hi in intervals:
        s_lo, s_hi = sign_at(p, lo), sign_at(p, hi)
        assert s_lo != 0  # left endpoints are never roots (half-open)
        assert s_lo * s_hi <= 0


def test_certificate_range_small():
    for n in range(1, 21):
        assert len(certify_real_roots(n).isolating_intervals) == n


def _fake_row_four(n):
    # R_4 = (1 + x)(1 + x^2): degree 3 like P_4 / x, but two of its roots are complex
    return (1, 1, 1, 1) if n == 4 else triangle_row(n)


def test_certification_failure_reports_structure(monkeypatch):
    monkeypatch.setattr(sturm_module, "triangle_row", _fake_row_four)
    monkeypatch.setattr(sturm_module, "_WITNESSES", {})
    with pytest.raises(CertificationError) as exc:
        certify_real_roots(4)
    report = exc.value.report
    assert set(report) == {"order", "stage", "expected", "observed"}
    assert report["order"] == 4
    assert report["stage"] == "signs around root 1 of P_(n-1) / x"
    assert report["expected"] == [1, 1]
    assert report["observed"] == [-1, -1]


def test_verify_reports_failed_certificate_instead_of_raising(monkeypatch):
    from stirperm import verify

    monkeypatch.setattr(sturm_module, "triangle_row", _fake_row_four)
    monkeypatch.setattr(sturm_module, "_WITNESSES", {})
    for suite in ("realroots", "interlace"):
        (result,) = verify.run_suite(suite, quick=True)
        assert not result.passed
        assert result.detail.startswith("first failure: n=4: ")


def test_interlace_vacuous_at_order_two():
    cert = interlace_certificate(2)
    assert cert.verified
    assert cert.witnesses == ()


def test_interlace_order_three_brackets_known_root():
    # the reduced order-2 polynomial has its single root at -1/2
    cert = interlace_certificate(3)
    assert cert.verified
    assert len(cert.witnesses) == 2
    below, above = cert.witnesses
    assert below.upper < Fraction(-1, 2) <= above.lower
    for witness in cert.witnesses:
        assert witness.sign_at_lower * witness.sign_at_upper < 0


def test_interlace_verified_through_order_twelve():
    for n in range(2, 13):
        cert = interlace_certificate(n)
        assert cert.verified
        assert len(cert.witnesses) == (0 if n == 2 else n - 1)


def test_interlace_rejects_tiny_order():
    with pytest.raises(ValueError):
        interlace_certificate(1)


def test_float_root_finder_diagnostic_agrees():
    # numpy's float roots against the Sturm oracle, a diagnostic for both
    numpy = pytest.importorskip("numpy")
    for n in range(1, 17):
        p = descent_polynomial(n)
        roots = numpy.roots(list(reversed(p.coefficients)))
        real = [r for r in roots if abs(r.imag) < 1e-9]
        assert len(real) == n
        assert all(r.real < 1e-9 for r in real)
        assert count_real_roots(p) == n


# --- independent replay of the certificates ----------------------------------

def _dyadic_sign(coefficients, x: Fraction) -> int:
    """Sign of the polynomial at the dyadic x = a / 2^e, by Horner's rule on
    integers: its value times 2^(e * degree)."""
    shift = x.denominator.bit_length() - 1
    assert x.denominator == 1 << shift, x
    acc = 0
    for j, c in enumerate(reversed(coefficients)):
        acc = acc * x.numerator + (c << shift * j)
    return (acc > 0) - (acc < 0)


def _replay_certificates(orders):
    """Re-check the certificates of ``orders`` with exact integer arithmetic
    on the entry recurrence's rows, sharing no code with the certifier: P_n
    changes sign across each isolating interval, R_n = P_n / x has the
    recorded opposite signs at the ends of each interlacing witness, and
    R_(n-1) changes sign between consecutive witnesses."""
    for n in orders:
        prev = triangle_row(n - 1) if n > 1 else ()  # R_(n-1)
        row = triangle_row(n)
        sign_p = functools.cache(lambda x: _dyadic_sign((0,) + row, x))  # P_n
        sign_r = functools.cache(lambda x: _dyadic_sign(row, x))  # R_n
        intervals = certify_real_roots(n).isolating_intervals
        assert len(intervals) == n
        for k, (lo, hi) in enumerate(intervals):
            assert lo < hi <= 0
            assert k == 0 or intervals[k - 1][1] <= lo
            assert sign_p(lo) != 0
            assert sign_p(hi) == 0 or sign_p(lo) != sign_p(hi), (n, k)
        if n < 2:
            continue
        witnesses = interlace_certificate(n).witnesses
        assert len(witnesses) == (0 if n == 2 else n - 1)
        for k, w in enumerate(witnesses):
            assert w.lower < w.upper <= 0
            assert k == 0 or witnesses[k - 1].upper < w.lower
            assert w.sign_at_lower == sign_r(w.lower)
            assert w.sign_at_upper == sign_r(w.upper)
            assert w.sign_at_lower * w.sign_at_upper == -1
        for left, right in zip(witnesses, witnesses[1:]):
            sides = _dyadic_sign(prev, left.upper), _dyadic_sign(prev, right.lower)
            assert sides in ((1, -1), (-1, 1)), (n, left, right)


def test_replay_certificates_through_order_one_hundred():
    _replay_certificates(range(1, 101))


def test_signs_left_by_a_failed_walk_are_not_read(monkeypatch):
    """The walk over orders 1..4 with a false R_4 fails after orders 1..3
    held, leaving R_4's signs behind. Walking on from order 3 with the true
    rows must not take them for R_3's: that would steer the bisection of R_3
    and move the separators off the roots of R_3: the replay sees R_3 keep
    its sign between two witnesses of order 4, and the golden digest of the
    witnesses sees them move."""
    monkeypatch.setattr(sturm_module, "_WITNESSES", {})
    monkeypatch.setattr(sturm_module, "_CARRIED", (IntPolynomial(), {}))
    monkeypatch.setattr(sturm_module, "triangle_row", _fake_row_four)
    with pytest.raises(CertificationError):
        certify_real_roots(4)
    monkeypatch.setattr(sturm_module, "triangle_row", triangle_row)
    assert sorted(sturm_module._WITNESSES) == [1, 2, 3]
    _replay_certificates(range(1, 31))
    assert _sha256(tuple(sturm_module._witnesses(n) for n in range(1, 81))) == _WITNESS_DIGEST


def test_oracle_counts_one_root_per_interval_and_gap():
    for n in range(1, 31):
        chain = SturmChain(descent_polynomial(n))
        for lo, hi in certify_real_roots(n).isolating_intervals:
            assert chain.count_roots(lo, hi) == 1
        if n < 3:
            continue
        prev = SturmChain(IntPolynomial(triangle_row(n - 1)))
        cur = SturmChain(IntPolynomial(triangle_row(n)))
        witnesses = interlace_certificate(n).witnesses
        for w in witnesses:
            assert cur.count_roots(w.lower, w.upper) == 1
            assert prev.count_roots(w.lower, w.upper) == 0
        for left, right in zip(witnesses, witnesses[1:]):
            assert prev.count_roots(left.upper, right.lower) == 1


def test_certificate_points_are_dyadic():
    def dyadic(q):
        return q.denominator & (q.denominator - 1) == 0

    for n in range(1, 61):
        for lo, hi in certify_real_roots(n).isolating_intervals:
            assert dyadic(lo) and dyadic(hi), (n, lo, hi)
        for w in interlace_certificate(n).witnesses if n > 1 else ():
            assert dyadic(w.lower) and dyadic(w.upper), (n, w)


def test_width_refinement_keeps_one_root_per_interval():
    width = Fraction(1, 1000)
    p = descent_polynomial(12)
    chain = SturmChain(p)
    cert = certify_real_roots(12, width=width)
    for lo, hi in cert.isolating_intervals:
        assert 0 < hi - lo <= width
        assert chain.count_roots(lo, hi) == 1
    with pytest.raises(ValueError):
        certify_real_roots(3, width=Fraction(0))


def test_nan_width_is_refused():
    # NaN compares false both ways: it is neither above 0 nor caught by ``<= 0``
    with pytest.raises(ValueError):
        certify_real_roots(4, width=float("nan"))


def test_infinite_width_leaves_the_brackets_unrefined():
    assert certify_real_roots(4, width=float("inf")) == certify_real_roots(4)


# --- identity with the certifier before signs were carried, and its cost ---

#: sha256 digests taken from the certifier before signs were carried across
#: orders
_WITNESS_DIGEST = "1b4314421264e20a3a660995f217c35ba02b7656fc298cbba9fda7ad7d09f39d"
_INTERVAL_DIGESTS = {
    Fraction(1, 2**64): "ca1ad1588fed05f0ffe3a4774dcb12bdf13019cdba1c2fa0aa645f022553e3a8",
    Fraction(1, 1024): "a524fb88364b2bcb8042b0ca5871bedaf264e85526130d58caa8dc51174169b6",
    Fraction(1, 3): "e1a76169e16cca767680153872457e170f9f73612bcf6e25aeba196571668e47",
}


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_witnesses_match_their_golden_digest():
    assert _sha256(tuple(sturm_module._witnesses(n) for n in range(1, 81))) == _WITNESS_DIGEST


@pytest.mark.parametrize("width", sorted(_INTERVAL_DIGESTS))
def test_refined_intervals_match_their_golden_digest(width):
    intervals = tuple(certify_real_roots(n, width=width).isolating_intervals for n in range(1, 41))
    assert _sha256(intervals) == _INTERVAL_DIGESTS[width]


def test_width_may_be_a_float():
    # a float compares exactly against a Fraction, so 1e-3 is Fraction(1e-3)
    for n in range(1, 21):
        exact = certify_real_roots(n, width=Fraction(1e-3)).isolating_intervals
        assert certify_real_roots(n, width=1e-3).isolating_intervals == exact


def _count_signs(monkeypatch) -> list[int]:
    """Start the walk cold and count every call of ``IntPolynomial.sign_at``."""
    monkeypatch.setattr(sturm_module, "_WITNESSES", {})
    monkeypatch.setattr(sturm_module, "_CARRIED", (IntPolynomial(), {}))
    calls = [0]
    kernel = IntPolynomial.sign_at

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(IntPolynomial, "sign_at", counted)
    return calls


def test_witnesses_take_each_sign_once(monkeypatch):
    # before signs were carried across orders: 4,057 evaluations
    calls = _count_signs(monkeypatch)
    sturm_module._witnesses(40)
    assert calls[0] <= 2929


def test_certify_sweep_takes_every_sign_through_sign_at(monkeypatch):
    # the bench counts ``polynomial.sign_at`` on this sweep: a kernel that
    # bypassed the name would leave the count short
    calls = _count_signs(monkeypatch)
    for n in range(2, 41):
        certify_real_roots(n)
        interlace_certificate(n)
    assert calls[0] == 3020
    # a --width run adds one sign per halving
    width = Fraction(1, 1024)
    for n in range(2, 41):
        before = calls[0]
        intervals = certify_real_roots(n).isolating_intervals
        expected = calls[0] - before
        for lo, hi in intervals:
            while hi - lo > width:
                hi, expected = (lo + hi) / 2, expected + 1
        before = calls[0]
        certify_real_roots(n, width=width)
        assert calls[0] - before == expected, n


def test_width_takes_signs_at_the_midpoints_alone(monkeypatch):
    # the witnesses fix P_n's sign at every lower end, so past the search
    # for u = -2^-k (2 signs at order 30) only the midpoints take one; a
    # sign at each lower end made these 2, 32 and 57
    calls = _count_signs(monkeypatch)
    sturm_module._witnesses(30)
    counts = []
    for width in (None, float("inf"), Fraction(1, 3)):
        calls[0] = 0
        certify_real_roots(30, width=width)
        counts.append(calls[0])
    assert counts == [2, 2, 27]


def _newton_holds(coefficients) -> bool:
    """Newton's inequalities for a_0 + a_1 x + ... + a_d x^d:
    a_k^2 k (d - k) >= a_(k-1) a_(k+1) (k + 1)(d - k + 1) for 0 < k < d.
    Every polynomial with only real roots meets them, so a failure would
    refute real-rootedness; they prove nothing."""
    a, d = coefficients, len(coefficients) - 1
    return all(
        a[k] * a[k] * k * (d - k) >= a[k - 1] * a[k + 1] * (k + 1) * (d - k + 1)
        for k in range(1, d)
    )


def test_newtons_inequalities_hold_on_every_row_and_fail_off_the_real_line():
    # R_n = P_n / x has the coefficients T(n, 1..n); orders 3..300 are the
    # ones ``roots`` certifies, and 1200 lies above ROOTS_ORDER_CAP
    from stirperm.cli import ROOTS_ORDER_CAP

    for n in [*range(3, ROOTS_ORDER_CAP + 1), 1200]:
        assert _newton_holds(triangle_row(n)), n
    assert ROOTS_ORDER_CAP < 1200
    assert not _newton_holds((1, 1, 1))  # x^2 + x + 1: 1 < 4 at k = 1
