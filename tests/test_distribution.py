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
    assert plateau_probability(5, 5) == 1
    assert plateau_probability(2, 1) == Fraction(2, 3)
    assert plateau_probability(3, 1) == Fraction(4, 5) * Fraction(2, 3)
    with pytest.raises(ValueError):
        plateau_probability(3, 4)
    with pytest.raises(ValueError):
        plateau_probability(3, 0)


def test_plateau_probability_against_enumeration():
    for n in range(1, 7):
        singles, _ = indicator_expectations(n)
        for value in range(1, n + 1):
            assert plateau_probability(n, value) == singles[value]


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
    assert plateau_probability(3, 1) == Fraction(8, 15)


def test_sum_identity_small_and_large():
    assert sum_identity_check(1)  # 1 = 3/3
    assert sum_identity_check(2)  # 1 + 2/3 = 5/3
    assert sum_identity_check(500)


def test_sum_identity_agrees_with_a_fraction_sum():
    for n in range(1, 81):
        total, product = Fraction(0), Fraction(1)
        for i in range(n):  # the i-th summand covers value n - i
            if i:
                product *= Fraction(2 * n - 2 * i, 2 * n - 2 * i + 1)
            total += product
        assert sum_identity_check(n) == (total == Fraction(2 * n + 1, 3)), n


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
    support = [distribution._standardized_point(k, 30) for k in range(1, 31)]
    assert all(a < b for a, b in zip(support, support[1:]))
    assert support[19] < 0 < support[20]  # values 20 and 21 straddle the mean 61/3
    row = triangle.triangle_row(30)
    mean = Fraction(sum(k * c for k, c in enumerate(row, start=1)), double_factorial(30))
    assert mean == moments_exact(30).mean
    with pytest.raises(ValueError):
        ks_distance_exact(1)  # the variance is 0


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


def _fraction_distance(counts, n):
    """The sup distance of the order-n histogram ``counts`` (values 1..n)
    from a Fraction pmf, over both sides of every jump: each running
    Fraction CDF value is converted to float where it meets the normal CDF,
    at a point from ``_fraction_point``."""
    m = moments_exact(n)
    population = sum(counts)
    worst = 0.0
    cumulative = Fraction(0)
    for k, count in enumerate(counts, start=1):
        if count:
            phi = normal_cdf(_fraction_point(k, m.mean, m.variance))
            below = abs(float(cumulative) - phi)
            cumulative += Fraction(count, population)
            above = abs(float(cumulative) - phi)
            worst = max(worst, below, above)
    return worst


def _ks_fraction_reference(n):
    """The exact distance from the exact row's Fraction pmf."""
    return _fraction_distance(triangle.triangle_row(n), n)


@pytest.mark.parametrize("n", [*range(2, 61), 400])
def test_ks_exact_bit_identical_to_fraction_reference(n):
    # int true division and float(Fraction) both round the exact quotient
    # correctly, so the integer prefix sums lose nothing
    assert ks_distance_exact(n).hex() == _ks_fraction_reference(n).hex()


#: ks_distance_exact(n).hex() and the argmax, frozen from the exact rows
#: (the floats up to 1200 are bench/golden.json's too; 3000's is the one
#: that ``normality --n 3000`` printed from the exact row, pinned in
#: test_cli's _PLOT_DIGESTS)
_EXACT_ROUTE = {
    500: ("0x1.bff269c80d850p-6", (334,)),
    600: ("0x1.985cb9a98e9e0p-6", (400,)),
    800: ("0x1.6235fc9f35a90p-6", (534,)),
    1200: ("0x1.2109602b60500p-6", (800,)),
    3000: ("0x1.6dd1be4f58200p-7", (2000,)),
}
#: the exact row of order 3000 takes 12-18 s to build, so only the orders
#: below it re-derive their frozen values from the exact route
_EXACT_ROUTE_REBUILT = (500, 600, 800, 1200)


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


def _count_normal_cdf(monkeypatch):
    """Record every point at which the distribution module evaluates Phi."""
    calls, real_cdf = [], distribution.normal_cdf
    monkeypatch.setattr(distribution, "normal_cdf", lambda t: calls.append(t) or real_cdf(t))
    return calls


def test_fixed_row_distance_reads_the_band_and_one_point_per_tail(monkeypatch):
    # Phi is evaluated at the nonzero band's points and at the innermost
    # point of each zero tail, never elsewhere in the tails
    n = 1200
    row = triangle.fixed_row(n)
    lo, hi = row.first, row.first + len(row.entries) - 1
    assert 1 < lo and hi < n and all(row.entries)  # one band, two tails
    points = _count_normal_cdf(monkeypatch)
    assert ks_distance_exact(n).hex() == _EXACT_ROUTE[n][0]
    assert sorted(points) == [
        distribution._standardized_point(k, n) for k in range(lo - 1, hi + 2)
    ]


def _two_tailed_row(n, masses):
    """A synthetic order-n enclosure of scale 2^96 and slack 1 on the band
    min(masses)..max(masses): entry k carries the share masses[k] of the
    rest, and every other entry is 0."""
    scale, lo, hi = 1 << 96, min(masses), max(masses)
    entries = [0] * (hi - lo + 1)
    for k, share in masses.items():
        entries[k - lo] = (scale - 1) * share.numerator // share.denominator
    entries[-1] += scale - 1 - sum(entries)
    return triangle.FixedRow(n, scale, tuple(entries), 1, lo)


@pytest.mark.parametrize(
    "masses",
    [
        # left tail 1..8: 2 Phi(t_8) = 0.777 passes the largest band term,
        # |1/4 - Phi(t_12)| = 0.749, and 2 Phi(t_1) does not
        {9: Fraction(1, 4), 12: Fraction(3, 4)},
        # right tail 8..12: 2 (1 - Phi(t_8)) = 1.22 passes the largest band
        # term, 1 - Phi(t_7) = 0.872; 2 (1 - Phi(t_12)) and the left tail's
        # 2 Phi(t_6) = 0.047 do not
        {7: Fraction(1)},
    ],
    ids=["left-tail", "right-tail"],
)
def test_tail_bound_above_the_band_terms_leaves_the_row_uncertified(monkeypatch, masses):
    n = 12
    row = _two_tailed_row(n, masses)
    lo, hi = min(masses), max(masses)
    assert (row.first, row.first + len(row.entries) - 1) == (lo, hi)
    # the band's own terms certify: only a tail bound holds the row back
    assert distribution._sup_distance(row.entries, row.scale, n, lo, 1) is not None
    assert distribution._row_distance(row) is None
    # so the distance moves on to the next enclosure: here the same entries,
    # all n of them, as an exact row of scale 2^96 - 1
    entries = (0,) * (lo - 1) + row.entries + (0,) * (n - hi)
    exact = triangle.FixedRow(n, row.scale - 1, entries, 0)
    monkeypatch.setattr(distribution, "row_enclosures", lambda n: iter((row, exact)))
    assert ks_distance_exact(n) == distribution._sup_distance(exact.entries, exact.scale, n)


def test_exact_route_gives_the_frozen_values(monkeypatch):
    # the rows behind every fallback, at the orders that now take the fixed
    # route by default
    monkeypatch.setattr(triangle, "_EXACT_FIRST_ORDERS", 10**30)
    monkeypatch.setattr(triangle, "fixed_row", _refuse_fixed_row)
    for n in _EXACT_ROUTE_REBUILT:
        ks_hex, argmax = _EXACT_ROUTE[n]
        assert ks_distance_exact(n).hex() == ks_hex, n
        assert locate_mode(n).argmax_indices == argmax, n


def test_ascending_sweep_past_order_120_builds_no_exact_row(monkeypatch):
    # after a sweep to 120 on the exact rows, each order above 120 reads the
    # fixed row, extended from the one before, and gives the exact row's values
    expected = {}
    for n in range(121, 401):
        row = triangle.triangle_row(n)
        exact = triangle.FixedRow(n, sum(row), row, 0)
        distance = distribution._sup_distance(row, exact.scale, n)
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
    assert distribution._row_distance(fixed) is None
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


def _wrong_second_moment_at_seven(real):
    # the variance follows the wrong second moment, as second - mean^2
    def moments(n):
        m = real(n)
        if n != 7:
            return m
        second = m.second_moment + Fraction(1, 9)
        return m._replace(second_moment=second, variance=second - m.mean**2)

    return moments


def _moved_mass_at_seven(real):
    # one permutation from 3 plateaux and one from 5 moved to 4: the sum
    # and the mean of row 7 stay, and its variance falls
    def row(n):
        entries = list(real(n))
        if n == 7:
            entries[2] -= 1
            entries[3] += 2
            entries[4] -= 1
        return tuple(entries)

    return row


@pytest.mark.parametrize(
    "module,name,patch",
    [
        (distribution, "moments_exact", _wrong_second_moment_at_seven),
        (triangle, "triangle_row", _moved_mass_at_seven),
    ],
    ids=["closed-form", "row"],
)
def test_verify_variance_check_fails_on_a_patched_route(monkeypatch, module, name, patch):
    def variance_check():
        (check,) = [
            c for c in verify.run_suite("moments", quick=True)
            if c.name == "variance closed form consistent"
        ]
        return check

    assert variance_check().passed
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    check = variance_check()
    assert not check.passed
    assert check.detail == "first failure: n=7"


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


@pytest.mark.parametrize(
    "args",
    # (500, 30, 1) draws 17 values over 322..351, with 13 zero bins between
    [(2, 60_000, 3), (500, 2_500, 1), (500, 30, 1)],
    ids=["order-2", "monte-carlo", "sparse"],
)
def test_ks_empirical_bit_identical_to_fraction_reference(args):
    n = args[0]
    histogram = sample_statistic_histogram(*args)
    expected = _fraction_distance(histogram[1:], n)
    assert ks_distance_empirical(*args).hex() == expected.hex()


def test_exact_row_reads_one_point_per_value(monkeypatch):
    assert [row.slack for row in triangle.row_enclosures(100)] == [0]  # the exact row
    calls = _count_normal_cdf(monkeypatch)
    ks_distance_exact(100)
    assert len(calls) == 100


def test_ks_empirical_standardizes_only_the_drawn_values(monkeypatch):
    histogram = sample_statistic_histogram(500, 30, 1)
    drawn = [k for k, count in enumerate(histogram) if count]
    assert len(drawn) < drawn[-1] - drawn[0] + 1  # zero bins inside the range
    calls = _count_normal_cdf(monkeypatch)
    ks_distance_empirical(500, 30, 1)
    assert calls == [distribution._standardized_point(k, 500) for k in drawn]


def test_ks_empirical_validates_inputs(monkeypatch):
    # order 1 is refused before any sampling
    monkeypatch.setattr(distribution, "sample_statistic_histogram", None)
    with pytest.raises(ValueError):
        ks_distance_empirical(1, 10, seed=0)
    with pytest.raises(ValueError):
        sample_statistic_histogram(3, 0, seed=0)
