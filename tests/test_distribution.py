import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from stirperm import distribution, triangle, verify
from stirperm.distribution import (
    brute_force_moments,
    indicator_expectations,
    indicator_pair_step_checks,
    ks_distance_empirical,
    ks_distance_exact,
    moments_exact,
    plateau_probability,
    sample_statistic_histogram,
    second_moments_by_recurrence,
    sum_identity_check,
)
from stirperm.permutations import enumerate_words, sample_word, word_statistics
from stirperm.polynomial import double_factorial
from stirperm.rng import SplitMix64
from stirperm.special import normal_cdf
from stirperm.triangle import ModeReport, locate_mode
from stirperm.verify import GOLDEN_KS_EXACT


def test_moments_first_orders():
    m1 = moments_exact(1)
    assert (m1.mean, m1.second_moment, m1.variance) == (1, 1, 0)
    m2 = moments_exact(2)
    assert m2.mean == Fraction(5, 3)
    assert m2.second_moment == 3
    assert m2.variance == Fraction(2, 9)
    assert moments_exact(3).variance == Fraction(16, 45)


def test_moments_of_order_two_by_listing():
    # the three order-2 words have plateau counts 2, 1, 2
    counts = [word_statistics(w).plateaux for w in enumerate_words(2)]
    assert sorted(counts) == [1, 2, 2]
    assert Fraction(sum(counts), 3) == moments_exact(2).mean
    assert Fraction(sum(c * c for c in counts), 3) == moments_exact(2).second_moment


def test_second_moment_recurrence_first_steps():
    values = second_moments_by_recurrence(3)
    assert values[0] == 1
    assert values[1] == Fraction(1, 3) * 1 + Fraction(8, 3)  # = 3
    assert values[2] == Fraction(3, 5) * 3 + 4  # = 29/5
    assert values[2] == Fraction(29, 5)


def test_second_moment_recurrence_matches_closed_form():
    values = second_moments_by_recurrence(300)
    for n in range(1, 301):
        assert values[n - 1] == moments_exact(n).second_moment


def test_brute_force_moments_match_closed_forms():
    for n in range(1, 7):
        mean, second = brute_force_moments(n)
        m = moments_exact(n)
        assert mean == m.mean
        assert second == m.second_moment


def test_variance_identity_and_growth():
    for n in range(2, 301):
        m = moments_exact(n)
        assert m.variance == Fraction(2 * n * n - 2, 18 * n - 9)
        assert m.variance > moments_exact(n - 1).variance
        if n >= 10:
            assert m.variance > Fraction(n, 10)


def test_plateau_probability_examples():
    assert plateau_probability(5, 5).probability == 1
    assert plateau_probability(2, 1).probability == Fraction(2, 3)
    assert plateau_probability(3, 1).probability == Fraction(4, 5) * Fraction(2, 3)
    with pytest.raises(ValueError):
        plateau_probability(3, 4)
    with pytest.raises(ValueError):
        plateau_probability(3, 0)


def test_plateau_probability_against_enumeration():
    for n in range(1, 7):
        singles, _ = indicator_expectations(n)
        for value in range(1, n + 1):
            assert plateau_probability(n, value).probability == singles[value]


def test_indicator_expectations_match_a_per_word_adjacency_scan():
    for n in range(1, 7):
        population = 0
        singles = Counter()
        pairs = Counter()
        for word in enumerate_words(n):
            population += 1
            here = [word[j] for j in range(len(word) - 1) if word[j] == word[j + 1]]
            singles.update(here)
            pairs.update(
                (min(a, b), max(a, b)) for i, a in enumerate(here) for b in here[i + 1:]
            )
        got_singles, got_pairs = indicator_expectations(n)
        assert got_singles == {
            v: Fraction(singles[v], population) for v in range(1, n + 1)
        }
        assert got_pairs == {k: Fraction(c, population) for k, c in pairs.items()}


def test_adjacency_count_of_smallest_value_in_order_three():
    # 8 of the 15 order-3 words keep the two copies of 1 adjacent
    adjacent = sum(
        1
        for w in enumerate_words(3)
        if any(w[j] == w[j + 1] == 1 for j in range(5))
    )
    assert adjacent == 8
    assert plateau_probability(3, 1).probability == Fraction(8, 15)


def test_sum_identity_small_and_large():
    assert sum_identity_check(1)  # 1 = 3/3
    assert sum_identity_check(2)  # 1 + 2/3 = 5/3
    assert sum_identity_check(500)


def test_indicator_pair_step_checks():
    for n in range(1, 6):
        assert indicator_pair_step_checks(n)
    with pytest.raises(ValueError):
        indicator_pair_step_checks(9)  # would need enumeration above the cap


def test_top_value_pairing_is_free():
    # jointly with the always-adjacent top value, adjacency is unchanged
    singles, pairs = indicator_expectations(4)
    assert singles[4] == 1
    for i in range(1, 4):
        assert pairs.get((i, 4), Fraction(0)) == singles[i]


def test_standardized_support_is_increasing_and_centered():
    support = distribution._standardized_support(30)
    assert all(a < b for a, b in zip(support, support[1:]))
    row = triangle.triangle_row(30)
    mean = Fraction(sum(k * c for k, c in enumerate(row, start=1)), double_factorial(30))
    assert mean == moments_exact(30).mean
    with pytest.raises(ValueError):
        distribution._standardized_support(1)  # the variance is 0


def _fraction_point(k, mean, variance):
    # (k - mean)/sigma from one exact rational square, float(Fraction)
    # rounding it once before the sqrt
    offset = k - mean
    magnitude = math.sqrt(float(offset * offset / variance))
    return magnitude if offset > 0 else (-magnitude if offset < 0 else 0.0)


def test_integer_support_points_equal_the_fraction_ones():
    # both round the same exact square correctly, so the floats are equal
    for n in [*range(2, 1201), 3000, 10007]:
        m = moments_exact(n)
        expected = [_fraction_point(k, m.mean, m.variance).hex() for k in range(1, n + 1)]
        got = [distribution._standardized_point(k, n).hex() for k in range(1, n + 1)]
        assert got == expected, n


def test_ks_exact_order_two_against_two_atom_oracle():
    # two atoms at (1 - 5/3)/sqrt(2/9) = -sqrt(2) and (2 - 5/3)/sqrt(2/9)
    # = 1/sqrt(2), with masses 1/3 and 2/3; reference CDF from scipy's ndtr,
    # which shares no code with normal_cdf (libm's erfc)
    special = pytest.importorskip("scipy.special")
    phi = lambda t: float(special.ndtr(t))
    t1, t2 = -math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    oracle = max(
        phi(t1), abs(1 / 3 - phi(t1)), abs(1 / 3 - phi(t2)), abs(1 - phi(t2))
    )
    assert abs(ks_distance_exact(2) - oracle) < 1e-12


def _ks_fraction_reference(n):
    """The exact distance from a Fraction pmf: each running Fraction CDF
    value is converted to float where it meets the normal CDF."""
    population = double_factorial(n)
    worst = 0.0
    cumulative = Fraction(0)
    for count, t in zip(triangle.triangle_row(n), distribution._standardized_support(n)):
        phi = normal_cdf(t)
        below = abs(float(cumulative) - phi)
        cumulative += Fraction(count, population)
        above = abs(float(cumulative) - phi)
        worst = max(worst, below, above)
    return worst


@pytest.mark.parametrize("n", [*range(2, 61), 400])
def test_ks_exact_bit_identical_to_fraction_reference(n):
    # int true division and float(Fraction) both round the exact quotient
    # correctly, so the integer prefix sums lose nothing
    assert ks_distance_exact(n).hex() == _ks_fraction_reference(n).hex()


#: ks_distance_exact(n).hex() and the argmax, frozen from the exact rows
#: (the floats are bench/golden.json's too)
_EXACT_ROUTE = {
    500: ("0x1.bff269c80d850p-6", (334,)),
    600: ("0x1.985cb9a98e9e0p-6", (400,)),
    800: ("0x1.6235fc9f35a90p-6", (534,)),
    1200: ("0x1.2109602b60500p-6", (800,)),
}


def _refuse_exact_row(n):
    raise AssertionError(f"order {n} fell back to the exact row")


def _refuse_fixed_row(n):
    raise AssertionError(f"order {n} took the fixed route")


def test_fixed_route_certifies_the_exact_distance_and_mode(monkeypatch):
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 10**30)
    expected = {
        n: (_ks_fraction_reference(n).hex(), locate_mode(n)) for n in range(2, 401)
    }
    for n, (ks_hex, argmax) in _EXACT_ROUTE.items():
        mean = Fraction(2 * n + 1, 3)
        predicted = (int(mean),) if mean.denominator == 1 else (int(mean), int(mean) + 1)
        expected[n] = ks_hex, ModeReport(n, mean, argmax, predicted)
    # every order takes the fixed-point route, and a fallback fails
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 0)
    monkeypatch.setattr(triangle, "triangle_row", _refuse_exact_row)
    for n, (ks_hex, mode) in expected.items():
        assert (ks_distance_exact(n).hex(), locate_mode(n)) == (ks_hex, mode), n


def test_exact_route_gives_the_frozen_values(monkeypatch):
    # the rows behind every fallback, at the orders that now take the fixed
    # route by default
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 10**30)
    monkeypatch.setattr(triangle, "fixed_row", _refuse_fixed_row)
    for n, (ks_hex, argmax) in _EXACT_ROUTE.items():
        assert ks_distance_exact(n).hex() == ks_hex, n
        assert locate_mode(n).argmax_indices == argmax, n


def test_ascending_sweep_past_order_120_builds_no_exact_row(monkeypatch):
    # after a sweep to 120 on the exact rows, each order above 120 reads the
    # fixed row, extended from the one before, and gives the exact row's values
    expected = {}
    for n in range(121, 401):
        row = triangle.triangle_row(n)
        exact = triangle.FixedRow(n, sum(row), row, 0)
        support = distribution._standardized_support(n)
        distance = distribution._sup_distance(row, exact.scale, support, 0)
        expected[n] = distance.hex(), triangle._argmax(exact)
    for n in range(2, 121):
        ks_distance_exact(n), locate_mode(n)
    monkeypatch.setattr(triangle, "triangle_row", _refuse_exact_row)
    for n in range(121, 401):
        assert (ks_distance_exact(n).hex(), locate_mode(n).argmax_indices) == expected[n], n


def test_uncertified_fixed_row_falls_back_to_the_exact_row(monkeypatch):
    # with B = 2 bitlen(n) the slack swamps both the CDF and the peak
    n = 300
    bits = 2 * n.bit_length()
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 10**30)
    expected = (ks_distance_exact(n).hex(), locate_mode(n))
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 0)
    monkeypatch.setattr(triangle, "_FIXED_BITS", bits)
    monkeypatch.setattr(triangle, "_last_fixed", None)  # a row of the full width
    fixed = triangle.fixed_row(n)
    assert fixed.scale == 1 << bits
    support = distribution._standardized_support(n)
    assert distribution._sup_distance(fixed.entries, fixed.scale, support, fixed.slack) is None
    top = max(fixed.entries)
    assert sum(q + fixed.slack >= top for q in fixed.entries) > 1  # no single peak
    assert triangle._argmax(fixed) is None
    rows, real_row = [], triangle.triangle_row
    monkeypatch.setattr(triangle, "triangle_row", lambda n: rows.append(n) or real_row(n))
    assert (ks_distance_exact(n).hex(), locate_mode(n)) == expected
    assert rows == [n, n]  # the distance and the mode each fell back


def test_plot_pmf_is_the_exact_rows_floats(monkeypatch):
    # every entry of the wide fixed-point row certifies at these orders, and
    # its float is the correctly rounded T(n, i)/(2n - 1)!!
    expected = {}
    for n in range(2, 401):
        population = double_factorial(n)
        expected[n] = tuple(c / population for c in triangle.triangle_row(n))
    monkeypatch.setattr(triangle, "triangle_row", _refuse_exact_row)
    for n, pmf in expected.items():
        assert distribution.pmf_floats(n) == pmf, n


def test_distance_after_the_plot_reads_the_plots_row(monkeypatch):
    # as normality --plot-out asks: the 1170-bit row of the pmf certifies the
    # distance too, and the value is the cold 96-bit row's, bit for bit
    n = 400
    monkeypatch.setattr(triangle, "_last_fixed", None)
    cold = ks_distance_exact(n)
    assert triangle._last_fixed.scale == 1 << 96
    distribution.pmf_floats(n)
    wide = triangle._last_fixed
    assert (wide.order, wide.scale) == (n, 1 << 1170)
    monkeypatch.setattr(triangle, "triangle_row", _refuse_exact_row)
    assert ks_distance_exact(n).hex() == cold.hex()
    assert triangle._last_fixed is wide  # no new row was built


def test_ks_exact_golden_values_and_decrease():
    for n, golden in GOLDEN_KS_EXACT.items():
        assert abs(ks_distance_exact(n) - golden) < 1e-9
    ordered = sorted(GOLDEN_KS_EXACT)
    for a, b in zip(ordered, ordered[1:]):
        assert GOLDEN_KS_EXACT[a] > GOLDEN_KS_EXACT[b]


def test_verify_clt_suite_full_and_quick():
    full = verify.run_suite("clt")
    assert len(full) == 2 and all(r.passed for r in full)
    assert full[0].detail.startswith("D(10)=0.185871 D(20)=0.135014")
    quick = verify.run_suite("clt", quick=True)
    assert len(quick) == 2 and all(r.passed for r in quick)  # golden check too


def test_verify_quick_ranges_lie_within_the_full_ones():
    # ``--quick`` trims ranges: an order bound or a count no larger, a tuple
    # of orders or seeds a prefix of the full one
    for key, (full, quick) in verify._RANGES.items():
        if isinstance(full, tuple):
            assert quick and full[: len(quick)] == quick, key
        else:
            assert 0 < quick <= full, key
    # keys that always held equal values are one key
    pairs = list(verify._RANGES.values())
    assert len(set(pairs)) == len(pairs)


def test_verify_clt_golden_check_names_a_shifted_order(monkeypatch):
    monkeypatch.setitem(GOLDEN_KS_EXACT, 50, GOLDEN_KS_EXACT[50] + 1e-8)
    decrease, golden = verify.run_suite("clt")
    assert decrease.passed
    assert not golden.passed
    assert golden.detail == "first failure: n=50"


def test_statistic_histogram_matches_word_sampler_distribution():
    # the gap-class chain must reproduce the plateau-count law of the full
    # word sampler; compare both against the exact pmf at order 3
    samples = 30_000
    hist_chain = sample_statistic_histogram(3, samples, seed=5)
    rng = SplitMix64(5)
    hist_words = [0] * 4
    for _ in range(samples):
        hist_words[word_statistics(sample_word(3, rng)).plateaux] += 1
    exact = [c / 15 for c in triangle.triangle_row(3)]
    for k in range(1, 4):
        assert abs(hist_chain[k] / samples - exact[k - 1]) < 0.01
        assert abs(hist_words[k] / samples - exact[k - 1]) < 0.01
    assert sum(hist_chain) == samples


def test_statistic_histogram_is_deterministic():
    a = sample_statistic_histogram(20, 500, seed=11)
    b = sample_statistic_histogram(20, 500, seed=11)
    assert a == b
    assert a == (0,) * 2 + a[2:]  # counts 0 and 1 are unreachable for n=20
    golden = sample_statistic_histogram(5, 20, seed=99)
    assert golden == (0, 0, 1, 6, 7, 6)


@pytest.mark.parametrize(
    "args,digest",
    [
        ((300, 200, 7), "69142038be5dc1672e0ffcdf762ed5ffebce8ae7242048c462b46168595d9714"),
        ((1000, 50, 23), "b90ff110bfa56dcff6a079b116ada913114390a5183c939782f8bcc109c2fd02"),
    ],
)
def test_statistic_histogram_frozen_digests(args, digest):
    # sha256 of json.dumps(list(histogram)), frozen from the scalar sampler
    histogram = sample_statistic_histogram(*args)
    assert hashlib.sha256(json.dumps(list(histogram)).encode()).hexdigest() == digest


def test_ks_empirical_determinism_and_convergence_small_order():
    d1 = ks_distance_empirical(2, 60_000, seed=3)
    d2 = ks_distance_empirical(2, 60_000, seed=3)
    assert d1 == d2
    assert abs(d1 - ks_distance_exact(2)) < 0.01


def test_ks_empirical_tracks_exact_at_order_fifty():
    # the empirical distance sits within sampling noise of the exact one;
    # DKW at 1e5 samples bounds the gap by ~0.009 with high probability
    emp = ks_distance_empirical(50, 100_000, seed=17)
    assert abs(emp - ks_distance_exact(50)) < 3e-3 + 0.01


def test_ks_empirical_large_order_beyond_exact_reach():
    # at order 1000 the distance must have fallen below the exact value at
    # order 200 by a clear margin over sampling noise. Order 1000 is within
    # exact reach too, so the estimate must also sit in the
    # Dvoretzky-Kiefer-Wolfowitz band (alpha = 1e-6) around the exact value:
    # two sup distances to the normal CDF differ by at most the sup distance
    # between the empirical and the exact CDF
    samples = 20_000
    emp = ks_distance_empirical(1000, samples, seed=23)
    assert emp < GOLDEN_KS_EXACT[200]
    epsilon = math.sqrt(math.log(2 / 1e-6) / (2 * samples))
    assert abs(emp - ks_distance_exact(1000)) <= epsilon


def test_ks_empirical_validates_inputs():
    with pytest.raises(ValueError):
        ks_distance_empirical(1, 10, seed=0)
    with pytest.raises(ValueError):
        sample_statistic_histogram(3, 0, seed=0)
