"""Scalar special functions for the distribution checks.

normal_cdf uses the odd Taylor expansion

    Phi(x) = 1/2 + phi(x) * sum_(k>=0) x^(2k+1) / (1 * 3 * ... * (2k+1)),

whose terms all carry the sign of x (no cancellation); it is summed to
float fixpoint. Beyond |x| = 9 the tail is below 1.2e-19, so the value is
clamped to 0 or 1. Absolute error is below 1e-14 everywhere, comfortably
inside the 1e-12 budget the distribution comparisons assume; the test suite
checks this against the C library's erfc.

chi_square_sf takes even degrees of freedom only, the one case its caller
needs ((2n-1)!! - 1 for the sampler's goodness of fit). There the upper tail
is the finite Poisson sum

    P(chi2_df > x) = e^(-h) sum_(j < df/2) h^j / j!,   h = x / 2,

whose terms are formed from their logarithms, so that e^(-h) cannot
underflow where the sum is still large, and added with fsum. The tests
hold it to scipy's value within 1e-12 plus 1e-9 of that value.
"""

from __future__ import annotations

import math

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_TAIL_CLAMP = 9.0
_MAX_TERMS = 600


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def normal_cdf(x: float) -> float:
    if math.isnan(x):
        raise ValueError("normal_cdf of NaN")
    if x >= _TAIL_CLAMP:
        return 1.0
    if x <= -_TAIL_CLAMP:
        return 0.0
    xx = x * x
    term = x
    total = x
    for k in range(1, _MAX_TERMS):
        term *= xx / (2.0 * k + 1.0)
        updated = total + term
        if updated == total:
            break
        total = updated
    return 0.5 + normal_pdf(x) * total


def chi_square_sf(statistic: float, df: int) -> float:
    """Upper-tail probability of a chi-square variable with df degrees of
    freedom exceeding ``statistic``; df must be even."""
    if df < 2 or df % 2:
        raise ValueError(f"degrees of freedom must be even and >= 2, got {df}")
    if statistic < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {statistic}")
    if statistic == 0:
        return 1.0
    h = statistic / 2.0
    log_h = math.log(h)
    return math.fsum(
        math.exp(j * log_h - h - math.lgamma(j + 1)) for j in range(df // 2)
    )
