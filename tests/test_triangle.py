import decimal
import hashlib
import json
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from stirperm import triangle
from stirperm.permutations import brute_force_triangle
from stirperm.polynomial import IntPolynomial, double_factorial
from stirperm.triangle import (
    descent_polynomial,
    gessel_stanley_check,
    gessel_stanley_checks,
    locate_mode,
    triangle_csv,
    triangle_json,
    triangle_row,
)
from stirperm.verify import _derivative_polynomials, run_suite


def parse_triangle_csv(text: str) -> list[tuple[int, ...]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "n,i,count":
        raise ValueError("missing 'n,i,count' header")
    rows: dict[int, dict[int, int]] = {}
    for ln in lines[1:]:
        n_s, i_s, c_s = ln.split(",")
        rows.setdefault(int(n_s), {})[int(i_s)] = int(c_s)
    return [
        tuple(rows[n][i] for i in range(1, n + 1)) for n in range(1, len(rows) + 1)
    ]


def test_first_rows():
    assert triangle_row(1) == (1,)
    assert triangle_row(2) == (1, 2)
    assert triangle_row(3) == brute_force_triangle(3, "descents")
    assert triangle_row(4) == brute_force_triangle(4, "descents")
    assert triangle_row(4) == (1, 22, 58, 24)
    assert sum(triangle_row(4)) == 105


def test_rows_list_shape():
    rows = [triangle_row(n) for n in range(1, 7)]
    assert len(rows) == 6
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5, 6]
    assert all(c > 0 for r in rows for c in r)


@pytest.mark.parametrize(
    "orders",
    [
        range(1, 41),
        range(40, 0, -1),
        [7, 7, 7, 30, 30, 1, 1, 40],
        [20, 3, 21, 2, 40, 19, 22, 1, 39, 38, 5, 40],
        [150, 220, 150],  # long extensions: 40 -> 150 -> 220, then from row 1
    ],
    ids=["ascending", "descending", "repeated", "interleaved", "long-steps"],
)
def test_rows_independent_of_call_order(orders):
    expected = [p[1:] for p in _derivative_polynomials(max(40, *orders))]
    assert [triangle_row(n) for n in range(1, 41)] == expected[:40]
    for n in orders:
        assert triangle_row(n) == expected[n - 1]
        assert descent_polynomial(n).coefficients[1:] == expected[n - 1]


def test_polynomial_first_orders():
    assert descent_polynomial(1) == IntPolynomial([0, 1])
    assert descent_polynomial(2) == IntPolynomial([0, 1, 2])
    assert descent_polynomial(5) == IntPolynomial([0, 1, 52, 328, 444, 120])


def test_polynomial_route_matches_triangle_route(monkeypatch):
    for n, poly in enumerate(_derivative_polynomials(120), start=1):
        assert poly == (0,) + triangle_row(n)
    # the oracle runs with every row builder refused, so it reads no row
    def refuse(*args, **kwargs):
        raise RuntimeError("the oracle must not build rows")

    for name in ("_extend", "triangle_row", "fixed_row"):
        monkeypatch.setattr(triangle, name, refuse)
    oracle = list(_derivative_polynomials(40))
    monkeypatch.undo()
    assert oracle == [(0,) + triangle_row(n) for n in range(1, 41)]


def test_route_check_reads_no_rows_for_its_oracle(monkeypatch):
    real = triangle.triangle_row

    def perturbed(n):
        row = real(n)
        return row[:-1] + (row[-1] + 1,) if n == 17 else row

    monkeypatch.setattr(triangle, "triangle_row", perturbed)
    results = {r.name: r for r in run_suite("triangle", quick=True)}
    route = results["polynomial route matches triangle route, n <= 60"]
    assert not route.passed
    assert route.detail == "first failure: n=17"


def test_row_sums_and_value_at_one():
    for n in range(1, 121):
        count = double_factorial(n)
        assert sum(triangle_row(n)) == count
        assert descent_polynomial(n)(1) == count


def test_exact_mean_from_polynomial():
    for n in range(1, 121):
        p = descent_polynomial(n)
        p_prime_at_one = sum(i * c for i, c in enumerate(p.coefficients))
        assert Fraction(p_prime_at_one, p(1)) == Fraction(2 * n + 1, 3)


def test_wilf_identity_small_and_medium():
    assert gessel_stanley_check(2)
    assert gessel_stanley_check(3)
    assert gessel_stanley_check(6)
    assert all(gessel_stanley_check(n) for n in range(2, 31))
    with pytest.raises(ValueError):
        gessel_stanley_check(0)


def test_wilf_identity_order_two_expands_by_hand():
    # S(2+k, k) for k = 0..4 is 0, 1, 7, 25, 65; times (1 - x)^5 this is
    # x + 2x^2 + 0x^3 + 0x^4 up to degree 4, which is P_2 padded with zeros
    series = [0, 1, 7, 25, 65]
    factor = [1, -5, 10, -10, 5, -1]  # (1 - x)^5
    product = [sum(series[j] * factor[k - j] for j in range(k + 1)) for k in range(5)]
    assert product == [0, 1, 2, 0, 0]
    assert descent_polynomial(2) == IntPolynomial([0, 1, 2])
    assert gessel_stanley_check(2)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_gessel_stanley_check_rejects_a_wrong_polynomial(monkeypatch, n):
    coefficients = list(descent_polynomial(n).coefficients)
    off_by_one = coefficients.copy()
    off_by_one[n // 2 + 1] += 1
    extra_term = coefficients + [1]  # degree n + 1
    for wrong in (off_by_one, extra_term):
        monkeypatch.setattr(
            triangle, "descent_polynomial", lambda _, w=wrong: IntPolynomial(w)
        )
        assert not gessel_stanley_check(n)
    monkeypatch.undo()
    assert gessel_stanley_check(n)


def test_sweep_matches_single_order_checks():
    expected = {n: gessel_stanley_check(n) for n in range(1, 61)}
    assert list(gessel_stanley_checks(range(1, 61))) == sorted(expected.items())
    assert all(expected.values())
    # any order of requests, repeats included, comes back ascending, once each
    assert list(gessel_stanley_checks([5, 3, 5, 1])) == [
        (1, True), (3, True), (5, True)
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_sweep_flags_a_wrong_polynomial_at_its_order_only(monkeypatch, n):
    real = triangle.descent_polynomial
    coefficients = list(real(n).coefficients)
    off_by_one = coefficients.copy()
    off_by_one[n // 2 + 1] += 1
    extra_term = coefficients + [1]  # degree n + 1
    beyond_window = coefficients + [0] * n + [1]  # degree 2n + 1
    for wrong in (off_by_one, extra_term, beyond_window):
        monkeypatch.setattr(
            triangle,
            "descent_polynomial",
            lambda m, w=wrong: IntPolynomial(w) if m == n else real(m),
        )
        assert list(gessel_stanley_checks(range(1, n + 2))) == [
            (m, m != n) for m in range(1, n + 2)
        ]


@pytest.mark.parametrize("orders", [[], (), [0], [-1], [3, 0, 5], range(0, 4)])
def test_sweep_rejects_empty_or_nonpositive_orders(orders):
    with pytest.raises(ValueError):
        list(gessel_stanley_checks(orders))


def test_stirling_rows_match_the_explicit_sum():
    def stirling2(m, k):
        total = sum((-1) ** (k - j) * comb(k, j) * j**m for j in range(k + 1))
        assert total % factorial(k) == 0
        return total // factorial(k)

    width = 25
    for d, row in zip(range(13), triangle._stirling_rows(width)):
        assert row == [stirling2(k + d, k) for k in range(width)]


@pytest.mark.parametrize(
    "n,mean,argmax,predicted",
    [
        (1, Fraction(1), (1,), (1,)),
        (3, Fraction(7, 3), (2,), (2, 3)),
        (4, Fraction(3), (3,), (3,)),
    ],
)
def test_mode_examples(n, mean, argmax, predicted):
    report = locate_mode(n)
    assert report.mean == mean
    assert report.argmax_indices == argmax
    assert report.predicted_indices == predicted
    assert report.within_unit_of_mean
    assert report.argmax_in_predicted


def test_mode_two_case_pattern_medium_range():
    for n in range(1, 121):
        report = locate_mode(n)
        assert report.within_unit_of_mean
        assert report.argmax_in_predicted
        if report.mean.denominator == 1:
            assert report.argmax_indices == (int(report.mean),)


def test_mode_is_the_integer_nearest_the_mean():
    # ceil(2n/3) is the integer nearest the mean (2n + 1)/3; proven only for
    # n = 1 (mod 3), where the mean is an integer (Darroch 1964)
    for n in range(2, 3001):  # ascending, so each fixed row extends the last
        assert locate_mode(n).argmax_indices == (-(-2 * n // 3),), n


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400])
def test_fixed_row_encloses_the_normalized_exact_row(monkeypatch, n):
    # 2^B p and its prefix sums exceed the fixed-point entries and theirs by
    # at least 0 and at most the slack; the slack gains less than m at step m
    monkeypatch.setattr(triangle, "_last_fixed", None)  # no wider row of order n
    fixed = triangle.fixed_row(n)
    assert fixed.order == n and fixed.scale == 1 << 96
    assert fixed.slack == fixed.scale - sum(fixed.entries)
    assert 0 <= fixed.slack < n * (n + 1) // 2
    population, scale = double_factorial(n), fixed.scale
    entries = _full_width(fixed)  # each value 1..n, 0 outside the band
    assert len(entries) == n
    exact = low = 0
    for count, entry in zip(triangle_row(n), entries):
        assert entry * population <= count * scale <= (entry + fixed.slack) * population
        exact += count
        low += entry
        assert low * population <= exact * scale <= (low + fixed.slack) * population
    assert triangle.fixed_row(n) is fixed  # one row remembered


def _full_width(row):
    """All n entries of ``row``, 0 outside its band."""
    entries = (0,) * (row.first - 1) + row.entries
    return entries + (0,) * (row.order - len(entries))


def _full_width_fixed_rows(bits, orders):
    """FixedRow for each of ``orders``, ascending, by the floored recurrence
    on every entry of every row, walked once: the band's oracle."""
    row = [1 << bits]
    for m in range(1, max(orders) + 1):
        if m > 1:
            d = 2 * m - 1
            row = [  # j = 2m - i
                (i * a + j * b) // d
                for i, j, a, b in zip(range(1, m + 1), range(d, m - 1, -1), row + [0], [0] + row)
            ]
        if m in orders:
            yield triangle.FixedRow(m, 1 << bits, tuple(row), (1 << bits) - sum(row))


def test_banded_fixed_row_is_the_full_width_row(monkeypatch):
    # every order below 2^16 shares B = 96, so one walk serves them all, and
    # the ascending calls reach each row by extending the one before
    orders = {*range(1, 401), 500, 600, 800, 1200, 3000}
    monkeypatch.setattr(triangle, "_last_fixed", None)
    for expected in _full_width_fixed_rows(96, orders):
        row = triangle.fixed_row(expected.order)
        assert row.entries[0] and row.entries[-1], expected.order  # trimmed
        assert row._replace(entries=_full_width(row), first=1) == expected, expected.order


def _cold_fixed_row(monkeypatch, n):
    monkeypatch.setattr(triangle, "_last_fixed", None)
    return triangle.fixed_row(n)


def test_fixed_row_extends_the_remembered_row_only_upwards_at_one_scale(monkeypatch):
    orders = (200, 400, 800, 1200, 3000)
    cold = [_cold_fixed_row(monkeypatch, n) for n in orders]
    monkeypatch.setattr(triangle, "_last_fixed", None)
    assert [triangle.fixed_row(n) for n in orders] == cold
    # the extension reads the remembered band: a made-up row 2 with all its
    # weight on entry 2 steps to entries 2..3, (2 * 2^96 // 5, 3 * 2^96 // 5)
    one = 1 << 96
    made_up = triangle.FixedRow(2, one, (one,), 0, 2)
    stepped = (2 * one // 5, 3 * one // 5)
    monkeypatch.setattr(triangle, "_last_fixed", made_up)
    assert triangle.fixed_row(3) == (3, one, stepped, one - sum(stepped), 2)
    # an order below the remembered one starts from row 1
    monkeypatch.setattr(triangle, "_last_fixed", made_up._replace(order=4))
    assert triangle.fixed_row(3) == _cold_fixed_row(monkeypatch, 3)
    # so does a remembered row with another B
    monkeypatch.setattr(triangle, "_FIXED_BITS", 104)
    expected = _cold_fixed_row(monkeypatch, 3)
    assert expected.scale == 1 << 104
    monkeypatch.setattr(triangle, "_last_fixed", made_up)
    assert triangle.fixed_row(3) == expected


def test_fixed_row_of_the_order_serves_a_request_for_fewer_bits(monkeypatch):
    wide = _cold_fixed_row(monkeypatch, 7)
    monkeypatch.setattr(triangle, "_FIXED_BITS", 40)
    assert triangle.fixed_row(7) is wide  # 40 bits asked, 96 remembered
    monkeypatch.setattr(triangle, "_FIXED_BITS", 104)
    narrow = triangle.fixed_row(7)  # more bits than remembered: a new row
    assert narrow.scale == wide.scale << 8 == _cold_fixed_row(monkeypatch, 7).scale


def _first_enclosure(monkeypatch, last, n, extra_bits=0):
    """The first row ``row_enclosures`` offers for order n when the last
    exact row built is row ``last``."""
    monkeypatch.setattr(triangle, "_last_row", triangle._extend((1,), last))
    return next(triangle.row_enclosures(n, extra_bits))


def test_enclosures_offer_the_fixed_row_only_past_the_crossover(monkeypatch):
    # the order alone decides, wherever the last exact row stands: the exact
    # row first up to order 120, the 96-bit row above it, and the plot's
    # 1170-bit row at every order
    exact = triangle.FixedRow(120, double_factorial(120), triangle_row(120), 0)
    for last in (1, 119, 120):
        assert _first_enclosure(monkeypatch, last, 120) == exact, last
    for last in (1, 120, 121):
        assert _first_enclosure(monkeypatch, last, 121).scale == 1 << 96, last
    for n in (120, 121):
        for last in (1, n - 1, n):
            assert _first_enclosure(monkeypatch, last, n, 1074).scale == 1 << 1170, (n, last)


def test_enclosures_end_with_the_exact_row_built_only_when_reached(monkeypatch):
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 0)
    monkeypatch.setattr(triangle, "_last_row", (1,))
    rows = triangle.row_enclosures(30)
    assert next(rows) == triangle.fixed_row(30)
    assert triangle._last_row == (1,)
    assert next(rows) == (30, double_factorial(30), triangle._extend((1,), 30), 0, 1)
    assert next(rows, None) is None


def test_argmax_rule_on_hand_built_rows():
    row = triangle.FixedRow
    # at slack 0 the rule gives the exact tie set
    assert triangle._argmax(row(4, 18, (1, 8, 8, 1), 0)) == (2, 3)
    # a runner-up within the slack, even at its edge, may be the peak
    assert triangle._argmax(row(4, 64, (3, 28, 27, 4), 2)) is None
    assert triangle._argmax(row(4, 64, (3, 29, 27, 3), 2)) is None
    # one beaten by more than the slack certifies the top index
    assert triangle._argmax(row(4, 64, (3, 30, 27, 2), 2)) == (2,)
    # a slack up to the top lets the zeros outside a band of one reach it
    assert triangle._argmax(row(4, 64, (30,), 34, 2)) is None


@pytest.mark.parametrize(
    "fixed,argmax,exact_read",
    [((3, 28, 28, 3), (2, 3), True), ((3, 30, 26, 3), (2,), False)],
    ids=["runner-up-within-the-slack", "runner-up-beaten"],
)
def test_mode_reads_the_first_row_that_certifies_it(monkeypatch, fixed, argmax, exact_read):
    # a made-up exact row 4 with a tie, (1, 8, 8, 1), behind made-up fixed
    # rows of scale 64 and slack 2: a runner-up within the slack falls
    # through to the exact row's tie set, a beaten one builds no exact row
    reads = []
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 0)
    monkeypatch.setattr(triangle, "fixed_row", lambda n, bits: triangle.FixedRow(n, 64, fixed, 2))
    monkeypatch.setattr(triangle, "triangle_row", lambda n: reads.append(n) or (1, 8, 8, 1))
    assert locate_mode(4).argmax_indices == argmax
    assert reads == ([4] if exact_read else [])


def test_csv_export_and_round_trip():
    text = "".join(triangle_csv(2))
    assert text == "n,i,count\n1,1,1\n2,1,1\n2,2,2\n"
    rows = parse_triangle_csv(text)
    assert rows == [(1,), (1, 2)]
    again = "".join(triangle_csv(2))
    assert again == text  # byte-identical re-emission


def test_json_export_and_round_trip():
    text = "".join(triangle_json(4))
    rows = [tuple(row) for row in json.loads(text)]
    assert rows == [triangle_row(n) for n in range(1, 5)]
    assert "".join(triangle_json(4)) == text
    # the streamed text is what one json.dumps of the whole list gives
    rows = [triangle_row(n) for n in range(1, 31)]
    expected = json.dumps([list(r) for r in rows], separators=(",", ":")) + "\n"
    assert "".join(triangle_json(30)) == expected


def test_writers_print_the_int_rows_text():
    rows = [triangle_row(n) for n in range(1, 121)]
    for n in range(1, 121):
        csv = "n,i,count\n" + "".join(
            f"{m},{i},{c}\n" for m, row in enumerate(rows[:n], start=1)
            for i, c in enumerate(row, start=1)
        )
        json_text = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows[:n]) + "]\n"
        assert ("".join(triangle_csv(n)), "".join(triangle_json(n))) == (csv, json_text), n


def test_writers_need_no_int_digit_limit():
    # row 300 has entries of about 700 digits, past this limit for str(int);
    # the digests are those of the pinned triangle --n-max 300 stdout
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(max(triangle_row(300)))
        json_text, csv_text = "".join(triangle_json(300)), "".join(triangle_csv(300))
    finally:
        sys.set_int_max_str_digits(limit)
    assert hashlib.sha256(json_text.encode()).hexdigest() == (
        "bf77ad2b46dd767ddf3d1018686def02f3a5a4e21b6bfa4ce094773d419269e2"
    )
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "525805901ed619ab8b2e3699c7fb5902dea1f71e27cdc6c79e5e656b157f71c9"
    )


def test_suspended_writer_leaves_the_callers_context():
    before = decimal.getcontext()
    settings = repr(before)
    for writer in (triangle_json, triangle_csv):
        chunks = writer(50)
        assert [next(chunks) for _ in range(5)]
        assert decimal.getcontext() is before and repr(before) == settings
        with decimal.localcontext():  # a copy of the caller's: it rounds
            assert decimal.Decimal(1) / 3 == decimal.Decimal("0.3333333333333333333333333333")
        assert "".join(chunks)
        assert decimal.getcontext() is before and repr(before) == settings


def test_inexact_step_raises_rather_than_printing(monkeypatch):
    # a context of 3 digits cannot hold row 6's 4-digit entries
    narrow = triangle._EXACT_DECIMAL.copy()
    narrow.prec = 3
    monkeypatch.setattr(triangle, "_EXACT_DECIMAL", narrow)
    with pytest.raises(decimal.Inexact):
        "".join(triangle_json(6))
