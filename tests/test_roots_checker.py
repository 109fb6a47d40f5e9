"""An independent checker for the certificates that ``roots`` prints.

``check_roots`` reads the JSON of ``roots --n N --interlace`` and checks the
proof in it from scratch. P_N comes from verify's derivative recurrence,
which shares no code with ``triangle_row``, and its sign at every printed
end from a Horner of this file's own, which shares no code with
``IntPolynomial.sign_at``.
"""

import functools
import json
import re
from fractions import Fraction

import pytest

from sturm_oracle import SturmChain

from stirperm.cli import main
from stirperm.polynomial import IntPolynomial
from stirperm.verify import _RANGES, _derivative_polynomials


@functools.cache
def _descent(n_max: int) -> tuple[tuple[int, ...], ...]:
    """The coefficients of P_1, ..., P_(n_max) by the derivative recurrence."""
    return tuple(_derivative_polynomials(n_max))


def _sign(coefficients, end) -> int:
    """Sign of the polynomial at a / b, end = [a, b] with b > 0: the sign of
    b^d p(a / b), d the degree, by Horner's rule in integers."""
    a, b = end
    acc, power = 0, 1
    for c in reversed(coefficients):
        acc = acc * a + c * power
        power *= b
    return (acc > 0) - (acc < 0)


def _at(end) -> Fraction:
    a, b = end
    assert b > 0, end
    return Fraction(a, b)


def check_roots(doc: dict, n: int, width: Fraction | None = None) -> None:
    """Raise AssertionError unless ``doc`` proves that P_n has n distinct real
    roots, none positive, one in each printed bracket, each bracket at most
    ``width`` wide, and that the roots of R_n = P_n / x and R_(n-1) strictly
    interlace.

    Proof: n disjoint brackets (lo, hi], P_n nonzero at lo and of another
    sign (or zero) at hi, each hold a root, and the degree n leaves none
    over. R_n has opposite signs at the ends of each of the n - 1 witness
    gaps, so each holds one of its n - 1 roots; R_(n-1) changes sign between
    consecutive gaps, so each of those n - 2 stretches holds one of its n - 2
    roots."""
    p = _descent(n)[n - 1]
    prev, cur = _descent(n)[n - 2][1:], p[1:]  # R_(n-1), R_n; n >= 2
    real = doc["real_roots"]
    assert (real["n"], real["count"], real["verified"]) == (n, n, True)
    brackets = [(row[:2], row[2:]) for row in real["intervals"]]
    assert len(brackets) == n, "bracket count"
    for k, (lo, hi) in enumerate(brackets):
        s_lo, s_hi = _sign(p, lo), _sign(p, hi)
        assert s_lo != 0 and s_hi != s_lo, f"no sign change across bracket {k}"
        assert _at(lo) < _at(hi) <= 0, f"bracket {k} is empty or positive"
        assert k == 0 or _at(brackets[k - 1][1]) <= _at(lo), f"bracket {k} overlaps"
        assert width is None or _at(hi) - _at(lo) <= width, f"bracket {k} is too wide"
    assert brackets[-1][1] == [0, 1] and _sign(p, [0, 1]) == 0, "root at 0"
    inter = doc["interlacing"]
    assert (inter["n"], inter["verified"]) == (n, True)
    witnesses = inter["witnesses"]
    assert len(witnesses) == (0 if n == 2 else n - 1), "witness count"
    for g, w in enumerate(witnesses):
        lo, hi = w["lower"], w["upper"]
        signs = w["sign_at_lower"], w["sign_at_upper"]
        assert signs == (_sign(cur, lo), _sign(cur, hi)), f"witness {g} signs"
        assert signs[0] * signs[1] == -1, f"witness {g} signs"
        assert w["root_count"] == 1
        assert _at(lo) < _at(hi) <= 0, f"witness {g} is empty or positive"
        assert g == 0 or _at(witnesses[g - 1]["upper"]) < _at(lo), f"witness {g} overlaps"
    for g, (left, right) in enumerate(zip(witnesses, witnesses[1:])):
        sides = _sign(prev, left["upper"]) * _sign(prev, right["lower"])
        assert sides == -1, f"R_(n-1) keeps its sign after witness {g}"


def _roots(capsys, n: int, width: str | None = None) -> dict:
    argv = ["roots", "--n", str(n), "--interlace"]
    assert main(argv + (["--width", width] if width else [])) == 0
    return json.loads(capsys.readouterr().out)


def test_checker_accepts_every_order_verify_certifies(capsys):
    # the orders 2..130 of ``verify --suite realroots`` (order 1 has no
    # interlacing to print)
    for n in range(2, _RANGES["certify_orders"][0] + 1):
        check_roots(_roots(capsys, n), n)


@pytest.mark.parametrize("n,width", [(12, "1/1024"), (30, f"1/{2**64}")])
def test_checker_accepts_refined_brackets(capsys, n, width):
    check_roots(_roots(capsys, n, width), n, Fraction(width))


def _moved_across_a_root(doc):
    # bracket 1, (lo, hi], becomes (hi, 2 hi - lo]: its lower end crosses the root
    row = doc["real_roots"]["intervals"][1]
    top = 2 * _at(row[2:]) - _at(row[:2])
    row[:] = [*row[2:], top.numerator, top.denominator]
    return "no sign change across bracket 1"


def _flipped_sign(doc):
    w = doc["interlacing"]["witnesses"][3]
    w["sign_at_lower"], w["sign_at_upper"] = w["sign_at_upper"], w["sign_at_lower"]
    return "witness 3 signs"


def _dropped_bracket(doc):
    del doc["real_roots"]["intervals"][4]
    return "bracket count"


@pytest.mark.parametrize("mutate", [_moved_across_a_root, _flipped_sign, _dropped_bracket])
def test_checker_rejects_a_broken_certificate(capsys, mutate):
    doc = _roots(capsys, 12, "1/1024")
    message = mutate(doc)
    with pytest.raises(AssertionError, match=re.escape(message)):
        check_roots(doc, 12, Fraction(1, 1024))


def test_checker_and_oracle_take_no_sign_through_the_kernel(capsys, monkeypatch):
    n = 12
    doc = _roots(capsys, n)

    def refuse(*args, **kwargs):
        raise RuntimeError("IntPolynomial.sign_at is the kernel under check")

    monkeypatch.setattr(IntPolynomial, "sign_at", refuse)
    check_roots(doc, n)
    chain = SturmChain(IntPolynomial(_descent(n)[n - 1]))
    for a, b, c, d in doc["real_roots"]["intervals"]:
        assert chain.count_roots(Fraction(a, b), Fraction(c, d)) == 1
    prev, cur = (SturmChain(IntPolynomial(_descent(n)[m - 1][1:])) for m in (n - 1, n))
    witnesses = doc["interlacing"]["witnesses"]
    for w in witnesses:
        lo, hi = _at(w["lower"]), _at(w["upper"])
        assert (cur.count_roots(lo, hi), prev.count_roots(lo, hi)) == (1, 0)
    for left, right in zip(witnesses, witnesses[1:]):
        assert prev.count_roots(_at(left["upper"]), _at(right["lower"])) == 1
