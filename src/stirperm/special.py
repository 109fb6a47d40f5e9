"""Scalar special functions for the distribution checks.

normal_cdf is libm's erfc, Phi(x) = erfc(-x / sqrt(2)) / 2; the tests hold
it to scipy's ndtr, an independent implementation, within 1e-15 absolute.

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

_SQRT_TWO = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def normal_cdf(x: float) -> float:
    if math.isnan(x):
        raise ValueError("normal_cdf of NaN")
    return 0.5 * math.erfc(-x / _SQRT_TWO)


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
