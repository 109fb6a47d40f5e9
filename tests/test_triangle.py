import json
import os
import signal
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
    triangle_rows,
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
    rows = triangle_rows(6)
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
    ],
    ids=["ascending", "descending", "repeated", "interleaved"],
)
def test_rows_independent_of_call_order(orders):
    expected = [p.coefficients[1:] for p in _derivative_polynomials(40)]
    assert triangle_rows(40) == expected
    for n in orders:
        assert triangle_row(n) == expected[n - 1]
        assert descent_polynomial(n).coefficients[1:] == expected[n - 1]


def test_polynomial_first_orders():
    assert descent_polynomial(1) == IntPolynomial([0, 1])
    assert descent_polynomial(2) == IntPolynomial([0, 1, 2])
    assert descent_polynomial(5) == IntPolynomial([0, 1, 52, 328, 444, 120])


def test_polynomial_route_matches_triangle_route():
    for n, poly in enumerate(_derivative_polynomials(120), start=1):
        assert poly.coefficients == (0,) + triangle_row(n)


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
        assert Fraction(p.derivative()(1), p(1)) == Fraction(2 * n + 1, 3)


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
    series = IntPolynomial([0, 1, 7, 25, 65])
    product = series * IntPolynomial([1, -5, 10, -10, 5, -1])  # (1 - x)^5
    assert product.coefficients[:5] == (0, 1, 2, 0, 0)
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


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400])
def test_fixed_row_encloses_the_normalized_exact_row(n):
    # 2^B p and its prefix sums exceed the fixed-point entries and theirs by
    # at least 0 and at most the slack; the slack gains less than m at step m
    fixed = triangle.fixed_row(n)
    assert fixed.order == n and fixed.bits == 64 + 2 * max(16, n.bit_length())
    assert fixed.slack == (1 << fixed.bits) - sum(fixed.entries)
    assert 0 <= fixed.slack < n * (n + 1) // 2
    population, scale = double_factorial(n), 1 << fixed.bits
    exact = low = 0
    for count, entry in zip(triangle_row(n), fixed.entries):
        assert entry * population <= count * scale <= (entry + fixed.slack) * population
        exact += count
        low += entry
        assert low * population <= exact * scale <= (low + fixed.slack) * population
    assert triangle.fixed_row(n) is fixed  # one row remembered


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
            yield triangle.FixedRow(m, bits, tuple(row), (1 << bits) - sum(row))


def test_banded_fixed_row_is_the_full_width_row(monkeypatch):
    # every order below 2^16 shares B = 96, so one walk serves them all, and
    # the ascending calls reach each row by extending the one before
    orders = {*range(1, 401), 500, 600, 800, 1200, 3000}
    monkeypatch.setattr(triangle, "_last_fixed", None)
    for expected in _full_width_fixed_rows(96, orders):
        assert triangle.fixed_row(expected.order) == expected, expected.order


def _cold_fixed_row(monkeypatch, n):
    monkeypatch.setattr(triangle, "_last_fixed", None)
    return triangle.fixed_row(n)


def test_fixed_row_extends_the_remembered_row_only_upwards_at_one_scale(monkeypatch):
    orders = (200, 400, 800, 1200, 3000)
    cold = [_cold_fixed_row(monkeypatch, n) for n in orders]
    monkeypatch.setattr(triangle, "_last_fixed", None)
    assert [triangle.fixed_row(n) for n in orders] == cold
    # the extension reads the remembered band: a made-up row 2 with all its
    # weight on entry 2 steps to (0, 2 * 2^96 // 5, 3 * 2^96 // 5)
    one = 1 << 96
    made_up = triangle.FixedRow(2, 96, (0, one), 0)
    stepped = (0, 2 * one // 5, 3 * one // 5)
    monkeypatch.setattr(triangle, "_last_fixed", made_up)
    assert triangle.fixed_row(3) == (3, 96, stepped, one - sum(stepped))
    # an order below the remembered one starts from row 1
    monkeypatch.setattr(triangle, "_last_fixed", made_up._replace(order=4))
    assert triangle.fixed_row(3) == _cold_fixed_row(monkeypatch, 3)
    # so does a remembered row with another B
    monkeypatch.setattr(triangle, "_FIXED_GUARD_BITS", 72)
    expected = _cold_fixed_row(monkeypatch, 3)
    assert expected.bits == 104
    monkeypatch.setattr(triangle, "_last_fixed", made_up)
    assert triangle.fixed_row(3) == expected


def test_fixed_route_only_past_the_crossover(monkeypatch):
    monkeypatch.setattr(triangle, "_last_row", (1,))
    monkeypatch.setattr(triangle, "_FIXED_WORK", 29)
    assert triangle.fixed_route(29) is None  # 29^3 - 1 = 29 * 29^2 - 1 units
    assert triangle.fixed_route(30).order == 30  # 30^3 - 1 > 29 * 30^2
    triangle_row(20)
    assert triangle.fixed_route(30) is None  # 30^3 - 20^3 from row 20
    triangle_row(40)
    assert triangle.fixed_route(30).order == 30  # row 40 is past 30: from row 1


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
    assert rows == list(triangle_rows(4))
    assert "".join(triangle_json(4)) == text
    # the streamed text is what one json.dumps of the whole list gives
    rows = triangle_rows(30)
    expected = json.dumps([list(r) for r in rows], separators=(",", ":")) + "\n"
    assert "".join(triangle_json(30)) == expected


# --- the split of a row extension between this process and a helper --------

_RUN_REAL_HELPER = "import runpy; runpy.run_path({helper!r}, run_name='__main__')\n"


def _fake_helper(tmp_path, monkeypatch, body: str) -> None:
    """Point the split at a helper script that runs ``body``."""
    script = tmp_path / "helper.py"
    script.write_text(body.format(helper=triangle._HELPER))
    monkeypatch.setattr(triangle, "_HELPER", str(script))


@pytest.fixture
def helpers(monkeypatch):
    """Every helper process the split starts, through a spy on Popen; the
    test fails if it has not returned within a minute."""
    import subprocess

    started = []
    real = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    def expire(signum, frame):
        raise TimeoutError("the split did not return within a minute")

    monkeypatch.setattr(subprocess, "Popen", spy)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield started
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_reaped(started) -> None:
    assert started
    for helper in started:
        assert helper.returncode is not None
        assert helper.stdin.closed and helper.stdout.closed
        with pytest.raises(ChildProcessError):  # waited for already
            os.waitpid(helper.pid, os.WNOHANG)


def _force_split(monkeypatch, cpus=(0, 1)) -> None:
    """Split every extension from row 1, on a host with ``cpus``."""
    monkeypatch.setattr(triangle, "_SPLIT_WORK", 0)
    monkeypatch.setattr(triangle, "_last_row", (1,))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.mark.parametrize(
    "m0,n",
    [(1, 2), (2, 3), (1, 9), (4, 9), (8, 9), (1, 40), (25, 40)],
)
def test_split_rows_are_the_serial_rows(m0, n, helpers):
    start = triangle._extend((1,), m0)
    expected = triangle._extend(start, n)
    # k below, at and above the starting order, and at both ends
    for k in sorted({1, m0 // 2 or 1, m0, (m0 + n) // 2, n - 1} - {0, n}):
        assert triangle._extend_split(start, n, k) == expected, k
    _assert_reaped(helpers)


def test_large_extension_splits_and_matches_the_serial_row(monkeypatch, helpers):
    _force_split(monkeypatch)
    expected = triangle._extend((1,), 150)
    assert triangle_row(150) == expected
    assert triangle_row(220) == triangle._extend(expected, 220)  # from row 150
    assert len(helpers) == 2
    _assert_reaped(helpers)


def test_split_runs_only_past_the_crossover_on_two_cpus(monkeypatch, helpers):
    monkeypatch.setattr(triangle, "_last_row", (1,))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(triangle, "_SPLIT_WORK", 29**3 - 1)
    triangle_row(29)  # 29^3 - 1 units of work: serial
    assert helpers == []
    triangle_row(1)
    triangle_row(30)  # 30^3 - 1 units: split
    assert len(helpers) == 1
    _assert_reaped(helpers)


def test_one_cpu_starts_no_helper(monkeypatch, helpers):
    _force_split(monkeypatch, cpus=(0,))
    assert triangle_row(60) == triangle._extend((1,), 60)
    assert helpers == []


@pytest.mark.parametrize("count,started", [(None, 0), (1, 0), (2, 1)])
def test_cpu_count_decides_without_sched_getaffinity(
    monkeypatch, helpers, count, started
):
    _force_split(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert triangle_row(60) == triangle._extend((1,), 60)
    assert len(helpers) == started
    if started:
        _assert_reaped(helpers)


def test_helper_that_cannot_start_leaves_the_serial_row(monkeypatch):
    import subprocess

    def refuse(*args, **kwargs):
        raise OSError("no processes left")

    _force_split(monkeypatch)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    assert triangle._extend_split((1,), 60, 20) is None
    assert triangle_row(60) == triangle._extend((1,), 60)


@pytest.mark.parametrize(
    "body",
    [
        # a whole, correct reply, then a nonzero exit
        _RUN_REAL_HELPER + "raise SystemExit(3)\n",
        # a nonzero exit before reading anything
        "raise SystemExit(1)\n",
        # the reply cut short by one byte
        "import io, runpy, sys\n"
        "sink = io.BytesIO()\n"
        "runpy.run_path({helper!r})['serve'](sys.stdin.buffer, sink)\n"
        "sys.stdout.buffer.write(sink.getvalue()[:-1])\n",
        # one byte past the reply
        _RUN_REAL_HELPER + "import sys; sys.stdout.buffer.write(b'x')\n",
    ],
    ids=["nonzero-after-reply", "nonzero-at-once", "truncated", "trailing-byte"],
)
def test_failed_helper_leaves_the_serial_row(tmp_path, monkeypatch, helpers, body):
    _fake_helper(tmp_path, monkeypatch, body)
    _force_split(monkeypatch)
    assert triangle._extend_split((1,), 60, 20) is None
    assert triangle_row(60) == triangle._extend((1,), 60)
    _assert_reaped(helpers)


def test_helper_is_reaped_when_the_caller_fails(tmp_path, monkeypatch, helpers):
    # a helper that would wait on its input for ever is stopped
    _fake_helper(tmp_path, monkeypatch, "import sys; sys.stdin.buffer.read()\n")

    def interrupted(stream, value):
        raise KeyboardInterrupt

    monkeypatch.setattr(triangle, "write_int", interrupted)
    with pytest.raises(KeyboardInterrupt):
        triangle._extend_split((1,), 60, 20)
    _assert_reaped(helpers)
