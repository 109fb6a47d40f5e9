"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the same
checks back the `stirperm verify` CLI command.
"""

import time
from fractions import Fraction

from stirperm.distribution import (
    brute_force_moments,
    indicator_pair_step_checks,
    ks_distance_exact,
    moments_exact,
    second_moments_by_recurrence,
    sum_identity_check,
)
from stirperm.permutations import (
    STAT_LABELS,
    brute_force_triangle,
    enumerate_words,
)
from stirperm.polynomial import double_factorial
from stirperm.sturm import certify_real_roots, interlace_certificate
from stirperm.triangle import (
    gessel_stanley_checks,
    locate_mode,
    triangle_row,
)
from stirperm.verify import (
    GOLDEN_KS_EXACT,
    _derivative_polynomials,
    sampler_uniformity_pvalue,
)


def _criterion(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_counting():
    sums_ok = all(
        sum(triangle_row(n)) == double_factorial(n) for n in range(1, 201)
    )
    start = time.monotonic()
    counts_ok = all(
        sum(1 for _ in enumerate_words(n)) == double_factorial(n)
        for n in range(1, 9)
    )
    elapsed = time.monotonic() - start
    _criterion(
        1,
        sums_ok and counts_ok and elapsed < 60.0,
        f"row sums (2n-1)!! for n<=200; enumeration counts for n<=8 "
        f"(order 8: 2,027,025 words in {elapsed:.1f}s)",
    )


def test_criterion_02_recurrences_vs_enumeration():
    ok = True
    for n, poly in enumerate(_derivative_polynomials(7), start=1):
        row = triangle_row(n)
        ok = ok and row == poly.coefficients[1:]
        for stat in STAT_LABELS:
            ok = ok and row == brute_force_triangle(n, stat)
    _criterion(
        2,
        ok,
        "entry recurrence and polynomial recurrence match enumeration "
        "for descents, ascents and plateaux, n<=7, exactly",
    )


def test_criterion_03_wilf_form():
    verdicts = dict(gessel_stanley_checks(range(2, 201)))
    ok = sorted(verdicts) == list(range(2, 201)) and all(verdicts.values())
    _criterion(
        3,
        ok,
        "Gessel-Stanley series sum_k S(n+k,k) x^k = P_n(x)/(1-x)^(2n+1) "
        "exact for 2<=n<=200",
    )


def test_criterion_04_real_roots_and_interlacing():
    start = time.monotonic()
    roots_ok = True
    for n in range(1, 61):
        intervals = certify_real_roots(n).isolating_intervals
        roots_ok = (
            roots_ok
            and len(intervals) == n
            and all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
            and all(hi <= 0 for _, hi in intervals)
        )
    interlace_ok = all(
        interlace_certificate(n).verified for n in range(2, 61)
    )
    elapsed = time.monotonic() - start
    _criterion(
        4,
        roots_ok and interlace_ok and elapsed < 600.0,
        f"n distinct real non-positive roots for n<=60 and interlacing "
        f"for n<=60 ({elapsed:.1f}s)",
    )


def test_criterion_05_mode_location():
    ok = True
    for n in range(1, 201):
        report = locate_mode(n)
        ok = ok and report.within_unit_of_mean and report.argmax_in_predicted
        if report.mean.denominator == 1:
            ok = ok and report.argmax_indices == (int(report.mean),)
    _criterion(
        5,
        ok,
        "argmax within 1 of (2n+1)/3 with the exact two-case peak pattern, n<=200",
    )


def test_criterion_06_moments():
    recurrence = second_moments_by_recurrence(1000)
    ok = all(
        recurrence[n - 1] == moments_exact(n).second_moment
        for n in range(1, 1001)
    )
    ok = ok and all(
        moments_exact(n).variance == Fraction(2 * n * n - 2, 18 * n - 9)
        for n in range(1, 1001)
    )
    for n in range(1, 8):
        mean, second = brute_force_moments(n)
        m = moments_exact(n)
        ok = ok and mean == m.mean and second == m.second_moment
    m2 = moments_exact(2)
    ok = ok and m2.variance == Fraction(2, 9) and m2.second_moment == 3
    _criterion(
        6,
        ok,
        "second-moment recurrence = closed form and variance formula for "
        "n<=1000; brute-force moments match for n<=7; spot values at n=2",
    )


def test_criterion_07_indicator_identities():
    ok = all(indicator_pair_step_checks(n) for n in range(1, 7))
    _criterion(
        7, ok, "all three insertion-step indicator identities exact for n<=6"
    )


def test_criterion_08_product_sum_identity():
    ok = all(sum_identity_check(n) for n in range(1, 501))
    _criterion(
        8, ok, "sum of adjacency products equals (2n+1)/3 exactly for n<=500"
    )


def test_criterion_09_sampler_goodness_of_fit():
    seeds = (1, 2, 3)
    pvalues = [
        sampler_uniformity_pvalue(3, samples=150_000, seed=seed)
        for seed in seeds
    ]
    ok = all(p > 1e-3 for p in pvalues)
    _criterion(
        9,
        ok,
        "chi-square uniformity over the 15 order-3 outcomes, 150,000 "
        f"samples, seeds {seeds}: p-values "
        + ", ".join(f"{p:.4f}" for p in pvalues),
    )


def test_criterion_10_normal_convergence():
    orders = (10, 20, 50, 100, 200)
    distances = [ks_distance_exact(n) for n in orders]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    golden_ok = all(
        abs(d - GOLDEN_KS_EXACT[n]) < 1e-9 for n, d in zip(orders, distances)
    )
    variance_ok = all(
        moments_exact(n).variance > moments_exact(n - 1).variance
        for n in range(3, 1001)
    )
    _criterion(
        10,
        decreasing and golden_ok and variance_ok,
        "exact normal distance strictly decreasing over n in "
        f"{orders} and matching frozen goldens; variance strictly "
        "increasing for 2<=n<=1000",
    )
