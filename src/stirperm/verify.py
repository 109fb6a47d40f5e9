"""Named verification suites behind the ``verify`` CLI command.

Each suite re-derives a family of facts two independent ways and compares
exactly; ``quick`` trims ranges for a fast smoke run. Results come back as
flat CheckResult records so callers can print one line per check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import distribution, sturm, triangle
from .permutations import (
    STAT_LABELS,
    brute_force_triangle,
    enumerate_words,
    sample_word,
)
from .polynomial import double_factorial
from .rng import LANES, SplitMix64
from .special import chi_square_sf

#: Exact standardized sup-distances to the normal CDF, recorded from this
#: package's exact pipeline and frozen; the convergence suite re-derives
#: and compares against these to 1e-9.
GOLDEN_KS_EXACT = {
    10: 0.18587095509696128,
    20: 0.13501386784884567,
    50: 0.08602472468892292,
    100: 0.060893160882176944,
    200: 0.04319155495774113,
}

SAMPLER_SIGNIFICANCE = 1e-3
#: The first outputs of the published reference implementation, splitmix64.c,
#: by seed. The scalar and lane draws share one mixing routine, so these are
#: what checks the mixing itself.
SPLITMIX64_VECTORS = {
    1234567: (6457827717110365317, 3203168211198807973, 9817491932198370423),
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
}

#: Each range as (full, quick): ``quick`` reads the second value.
_RANGES = {
    "row_orders": (200, 60),
    "enumeration_orders": (7, 6),
    "wilf_orders": (120, 16),
    "certify_orders": (130, 12),
    "moment_orders": (1000, 200),
    "indicator_orders": (6, 4),
    "sum_identity_orders": (500, 100),
    "sampler_samples": (150_000, 20_000),
    "sampler_seeds": ((1, 2, 3), (1,)),
    "clt_orders": ((10, 20, 50, 100, 200), (10, 20, 50)),
}


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _check(suite: str, name: str, pairs) -> CheckResult:
    """Passed when every (tag, ok) pair is ok; the detail names the first
    failing tag."""
    failed = next((tag for tag, ok in pairs if not ok), None)
    detail = "" if failed is None else f"first failure: {failed}"
    return CheckResult(suite, name, failed is None, detail)


def _derivative_polynomials(n_max: int):
    """The coefficient tuples of P_1, ..., P_(n_max) by the derivative
    recurrence P_m = (x - x^2) P_(m-1)' + (2m - 1) x P_(m-1), P_1 = x: the
    oracle for ``triangle_row``, with which it shares no code. Each step
    forms P', its shifts by x and by x^2, and (2m - 1) x P as separate lists,
    then sums them term by term."""
    poly = (0, 1)
    yield poly
    for m in range(2, n_max + 1):
        derivative = [i * c for i, c in enumerate(poly) if i]
        terms = (
            [0, *derivative, 0],  # x P'
            [0, 0, *(-c for c in derivative)],  # -x^2 P'
            [0, *((2 * m - 1) * c for c in poly)],  # (2m - 1) x P
        )
        poly = tuple(map(sum, zip(*terms)))
        yield poly


def _suite_triangle(p) -> list[CheckResult]:
    # one ascending walk: each row is read once, one step of the builder's
    # memo from the last, and the Gessel-Stanley walk reads it in step
    sums, oracle, agree, means, series, modes = [], [], [], [], [], []
    series_checks = triangle.gessel_stanley_checks(range(1, p["wilf_orders"] + 1))
    oracle_polys = _derivative_polynomials(p["row_orders"])
    for n, oracle_poly in enumerate(oracle_polys, start=1):
        row = triangle.triangle_row(n)
        total = sum(row)
        sums.append((n, total == double_factorial(n)))
        if n <= p["enumeration_orders"]:
            for stat in STAT_LABELS:
                oracle.append((f"n={n} {stat}", row == brute_force_triangle(n, stat)))
        agree.append((f"n={n}", (0,) + row == oracle_poly))
        # P_n'(1) / P_n(1) = (2n + 1)/3
        weighted = sum(i * t for i, t in enumerate(row, start=1))
        means.append((f"n={n}", 3 * weighted == (2 * n + 1) * total))
        if n <= p["wilf_orders"]:
            series.append((f"n={n}", next(series_checks)[1]))
        report = triangle.locate_mode(n)
        modes.append((f"n={n}", report.within_unit_of_mean and report.argmax_in_predicted))
    return [
        _check("triangle", f"row sums equal (2n-1)!! for n <= {p['row_orders']}", sums),
        _check(
            "triangle",
            "recurrence row = enumeration counts for descents/plateaux/"
            f"ascents, n <= {p['enumeration_orders']}",
            oracle,
        ),
        _check(
            "triangle",
            f"polynomial route matches triangle route, n <= {p['row_orders']}",
            agree,
        ),
        _check("triangle", "mean statistic value equals (2n+1)/3 exactly", means),
        _check(
            "triangle",
            "Gessel-Stanley series sum_k S(n+k,k) x^k = P_n(x)/(1-x)^(2n+1), "
            f"n <= {p['wilf_orders']}",
            series,
        ),
        _check(
            "triangle",
            f"peaks within 1 of mean and matching two-case pattern, n <= {p['row_orders']}",
            modes,
        ),
    ]


def _certificates(certify, orders):
    """(order, tag, certificate) per order; a CertificationError gives None,
    and its report joins the tag."""
    for n in orders:
        try:
            cert = certify(n)
        except sturm.CertificationError as exc:
            yield n, f"n={n}: {exc.report}", None
        else:
            yield n, f"n={n}", cert


def _suite_realroots(p) -> list[CheckResult]:
    orders = range(1, p["certify_orders"] + 1)
    results = []
    for n, tag, cert in _certificates(sturm.certify_real_roots, orders):
        # an order that failed to certify has no intervals, so it fails the count
        intervals = () if cert is None else cert.isolating_intervals
        disjoint = all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
        nonpositive = all(lo < hi <= 0 for lo, hi in intervals)
        results.append((tag, len(intervals) == n and disjoint and nonpositive))
    return [
        _check(
            "realroots",
            f"n distinct real non-positive roots certified, n <= {p['certify_orders']}",
            results,
        )
    ]


def _suite_interlace(p) -> list[CheckResult]:
    # a certificate is returned only when every interlacing check passed
    certificates = _certificates(sturm.interlace_certificate, range(2, p["certify_orders"] + 1))
    return [
        _check(
            "interlace",
            f"consecutive reduced polynomials strictly interlace, n <= {p['certify_orders']}",
            [(tag, cert is not None) for _, tag, cert in certificates],
        )
    ]


def _suite_moments(p) -> list[CheckResult]:
    recurrence = distribution.second_moments_by_recurrence(p["moment_orders"])
    closed, variances, brute, growth = [], [], [], []
    for n in range(1, p["moment_orders"] + 1):
        m = distribution.moments_exact(n)
        closed.append((f"n={n}", recurrence[n - 1] == m.second_moment))
        ok = m.variance == Fraction(2 * n * n - 2, 18 * n - 9)
        if n <= p["row_orders"]:
            # the exact row's variance (S0 S2 - S1^2) / S0^2, S_j = sum i^j T(n, i)
            row = tuple(enumerate(triangle.triangle_row(n), start=1))
            s0, s1, s2 = (sum(i**j * t for i, t in row) for j in range(3))
            ok = ok and (s0 * s2 - s1 * s1) * (18 * n - 9) == (2 * n * n - 2) * s0 * s0
        variances.append((f"n={n}", ok))
        if n <= p["enumeration_orders"]:
            mean, second = distribution.brute_force_moments(n)
            brute.append((f"n={n}", mean == m.mean and second == m.second_moment))
        if n >= 3:
            ok = m.variance > prev and (n < 10 or m.variance > Fraction(n, 10))
            growth.append((f"n={n}", ok))
        prev = m.variance
    return [
        _check(
            "moments",
            f"second-moment recurrence equals closed form, n <= {p['moment_orders']}",
            closed,
        ),
        _check("moments", "variance closed form consistent", variances),
        _check(
            "moments",
            f"brute-force mean/second moment match, n <= {p['enumeration_orders']}",
            brute,
        ),
        _check(
            "moments",
            f"variance strictly increasing (and > n/10 from 10 on), n <= {p['moment_orders']}",
            growth,
        ),
    ]


def _suite_identities(p) -> list[CheckResult]:
    steps = [
        (f"n={n}", distribution.indicator_pair_step_checks(n))
        for n in range(1, p["indicator_orders"] + 1)
    ]
    sums = [
        (f"n={n}", distribution.sum_identity_check(n))
        for n in range(1, p["sum_identity_orders"] + 1)
    ]
    oracle = []
    for n in range(1, p["enumeration_orders"] + 1):
        singles, _ = distribution.indicator_expectations(n)
        for value in range(1, n + 1):
            oracle.append(
                (
                    f"n={n} value={value}",
                    distribution.plateau_probability(n, value) == singles[value],
                )
            )
    return [
        _check(
            "identities",
            f"insertion-step indicator identities, n <= {p['indicator_orders']}",
            steps,
        ),
        _check(
            "identities",
            f"adjacency probabilities sum to (2n+1)/3, n <= {p['sum_identity_orders']}",
            sums,
        ),
        _check(
            "identities",
            f"product formula matches enumerated adjacency, n <= {p['enumeration_orders']}",
            oracle,
        ),
    ]


def sampler_uniformity_pvalue(n: int, samples: int, seed: int) -> float:
    """Chi-square goodness-of-fit p-value of the uniform sampler against
    exact enumeration of all order-n words."""
    outcomes = {word: 0 for word in enumerate_words(n)}
    rng = SplitMix64(seed)
    for _ in range(samples):
        outcomes[sample_word(n, rng)] += 1
    expected = samples / len(outcomes)
    statistic = sum(
        (observed - expected) ** 2 / expected for observed in outcomes.values()
    )
    return chi_square_sf(statistic, len(outcomes) - 1)


def _scalar_statistic_histogram(n: int, samples: int, seed: int) -> tuple[int, ...]:
    """``sample_statistic_histogram`` drawn one ``below`` call at a time."""
    rng = SplitMix64(seed)
    histogram = [0] * (n + 1)
    for _ in range(samples):
        count = 1
        for gaps in range(3, 2 * n, 2):
            count += rng.below(gaps) >= count
        histogram[count] += 1
    return tuple(histogram)


def _suite_sampler(p) -> list[CheckResult]:
    out = []
    fits = []
    for order in (2, 3):
        for seed in p["sampler_seeds"]:
            pvalue = sampler_uniformity_pvalue(order, p["sampler_samples"], seed)
            fits.append(
                (
                    f"order={order} seed={seed} p={pvalue:.4g}",
                    pvalue > SAMPLER_SIGNIFICANCE,
                )
            )
    out.append(
        _check(
            "sampler",
            f"chi-square uniformity at significance {SAMPLER_SIGNIFICANCE}, "
            f"{p['sampler_samples']} samples, seeds {p['sampler_seeds']}",
            fits,
        )
    )
    seed = p["sampler_seeds"][0]
    samples = 2 * LANES + 5  # three chunks of the chain kernel, the last one partial
    rerun_same = distribution.sample_statistic_histogram(
        12, samples, seed
    ) == _scalar_statistic_histogram(12, samples, seed)
    word_same = sample_word(9, SplitMix64(seed)) == sample_word(
        9, SplitMix64(seed)
    )
    published = True
    for vector_seed, outputs in SPLITMIX64_VECTORS.items():
        rng = SplitMix64(vector_seed)
        published &= tuple(rng.next_uint64() for _ in outputs) == outputs
    out.append(
        CheckResult(
            "sampler",
            "fixed seed reproduces bit-identical draws",
            rerun_same and word_same and published,
        )
    )
    return out


def _suite_clt(p) -> list[CheckResult]:
    out = []
    distances = [(n, distribution.ks_distance_exact(n)) for n in p["clt_orders"]]
    decreasing = all(
        distances[i][1] > distances[i + 1][1] for i in range(len(distances) - 1)
    )
    out.append(
        CheckResult(
            "clt",
            "exact normal distance strictly decreases over "
            + ",".join(str(n) for n in p["clt_orders"]),
            decreasing,
            " ".join(f"D({n})={d:.6g}" for n, d in distances),
        )
    )
    golden = [
        (f"n={n}", abs(d - GOLDEN_KS_EXACT[n]) < 1e-9)
        for n, d in distances
        if n in GOLDEN_KS_EXACT
    ]
    out.append(
        _check("clt", "exact distances match frozen golden values to 1e-9", golden)
    )
    return out


_SUITES = {
    "triangle": _suite_triangle,
    "realroots": _suite_realroots,
    "interlace": _suite_interlace,
    "moments": _suite_moments,
    "identities": _suite_identities,
    "sampler": _suite_sampler,
    "clt": _suite_clt,
}

SUITE_NAMES = ("all",) + tuple(_SUITES)


def run_suite(name: str, quick: bool = False) -> list[CheckResult]:
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    params = {key: ranges[quick] for key, ranges in _RANGES.items()}
    suites = _SUITES.values() if name == "all" else (_SUITES[name],)
    results: list[CheckResult] = []
    for suite in suites:
        results.extend(suite(params))
    return results
