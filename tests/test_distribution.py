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
    normalized_distribution,
    plateau_probability,
    sample_statistic_histogram,
    second_moments_by_recurrence,
    sum_identity_check,
)
from stirperm.permutations import enumerate_words, sample_word, word_statistics
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


def test_normalized_distribution_small_orders():
    d2 = normalized_distribution(2)
    assert d2.pmf == (Fraction(1, 3), Fraction(2, 3))
    d3 = normalized_distribution(3)
    assert d3.pmf == (Fraction(1, 15), Fraction(8, 15), Fraction(6, 15))
    assert (d3.counts, d3.population) == ((1, 8, 6), 15)
    for n in (2, 5, 40):
        assert sum(normalized_distribution(n).pmf) == 1
    with pytest.raises(ValueError):
        normalized_distribution(1)


def test_standardized_support_is_increasing_and_centered():
    d = normalized_distribution(30)
    assert all(a < b for a, b in zip(d.standardized_support, d.standardized_support[1:]))
    mean = sum(p * Fraction(k) for k, p in enumerate(d.pmf, start=1))
    assert mean == d.mean


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
    dist = normalized_distribution(n)
    worst = 0.0
    cumulative = Fraction(0)
    for weight, t in zip(dist.pmf, dist.standardized_support):
        phi = normal_cdf(t)
        below = abs(float(cumulative) - phi)
        cumulative += weight
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
    monkeypatch.setattr(triangle, "_FIXED_WORK", 10**30)
    expected = {
        n: (_ks_fraction_reference(n).hex(), locate_mode(n)) for n in range(2, 401)
    }
    for n, (ks_hex, argmax) in _EXACT_ROUTE.items():
        mean = Fraction(2 * n + 1, 3)
        predicted = (int(mean),) if mean.denominator == 1 else (int(mean), int(mean) + 1)
        expected[n] = ks_hex, ModeReport(n, mean, argmax, predicted)
    # every order takes the fixed-point route, and a fallback fails
    monkeypatch.setattr(triangle, "_FIXED_WORK", -1)
    monkeypatch.setattr(triangle, "triangle_row", _refuse_exact_row)
    monkeypatch.setattr(distribution, "triangle_row", _refuse_exact_row)
    for n, (ks_hex, mode) in expected.items():
        assert (ks_distance_exact(n).hex(), locate_mode(n)) == (ks_hex, mode), n


def test_exact_route_gives_the_frozen_values(monkeypatch):
    # the rows behind --plot-out and every fallback, at the orders that now
    # take the fixed route by default
    monkeypatch.setattr(triangle, "_FIXED_WORK", 10**30)
    monkeypatch.setattr(triangle, "fixed_row", _refuse_fixed_row)
    for n, (ks_hex, argmax) in _EXACT_ROUTE.items():
        assert ks_distance_exact(n).hex() == ks_hex, n
        assert locate_mode(n).argmax_indices == argmax, n


def test_uncertified_fixed_row_falls_back_to_the_exact_row(monkeypatch):
    # with B = 2 bitlen(n) the slack swamps both the CDF and the peak
    n = 300
    bits = 2 * n.bit_length()
    monkeypatch.setattr(triangle, "_FIXED_WORK", 10**30)
    expected = (ks_distance_exact(n).hex(), locate_mode(n))
    monkeypatch.setattr(triangle, "_FIXED_WORK", -1)
    monkeypatch.setattr(triangle, "_FIXED_GUARD_BITS", bits - 2 * max(16, n.bit_length()))
    monkeypatch.setattr(triangle, "_last_fixed", None)  # a row of the full width
    rows = []
    monkeypatch.setattr(
        distribution, "triangle_row", lambda n: rows.append(n) or triangle.triangle_row(n)
    )
    fixed = triangle.fixed_row(n)
    assert fixed.bits == bits
    support = distribution._standardized_support(moments_exact(n))
    assert distribution._sup_distance(fixed.entries, 1 << fixed.bits, support, fixed.slack) is None
    assert triangle._certified_argmax(fixed) is None
    assert (ks_distance_exact(n).hex(), locate_mode(n)) == expected
    assert rows == [n]


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
    assert len(quick) == 1 and quick[0].passed


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
    exact = normalized_distribution(3).pmf
    for k in range(1, 4):
        assert abs(hist_chain[k] / samples - float(exact[k - 1])) < 0.01
        assert abs(hist_words[k] / samples - float(exact[k - 1])) < 0.01
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
