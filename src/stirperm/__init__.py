"""Exact descent/plateau/ascent statistics of Stirling permutations.

Core surface: the permutation type with validation, enumeration and uniform
sampling; the statistic triangle, built by an entry recurrence and checked
against a derivative recurrence on its generating polynomials;
sign-alternation certificates that each generating polynomial has distinct
real non-positive roots and that consecutive ones interlace; and exact moment
identities with measured convergence of the standardized statistic to the
normal distribution.
"""

from .distribution import (
    Moments,
    PlateauIndicator,
    indicator_pair_step_checks,
    ks_distance_empirical,
    ks_distance_exact,
    moments_exact,
    plateau_probability,
    sample_statistic_histogram,
    second_moments_by_recurrence,
    sum_identity_check,
)
from .permutations import (
    InvalidPermutation,
    MAX_ENUMERATION_ORDER,
    ResourceLimitExceeded,
    StatCounts,
    StirlingPermutation,
    brute_force_triangle,
    enumerate_words,
    word_statistics,
)
from .polynomial import IntPolynomial, double_factorial
from .rng import SplitMix64
from .sturm import (
    CertificationError,
    InterlaceCertificate,
    RealRootCertificate,
    certify_real_roots,
    interlace_certificate,
)
from .triangle import (
    ModeReport,
    descent_polynomial,
    gessel_stanley_check,
    gessel_stanley_checks,
    locate_mode,
    triangle_row,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "IntPolynomial",
    "InterlaceCertificate",
    "InvalidPermutation",
    "MAX_ENUMERATION_ORDER",
    "ModeReport",
    "Moments",
    "PlateauIndicator",
    "RealRootCertificate",
    "ResourceLimitExceeded",
    "SplitMix64",
    "StatCounts",
    "StirlingPermutation",
    "brute_force_triangle",
    "certify_real_roots",
    "descent_polynomial",
    "double_factorial",
    "enumerate_words",
    "gessel_stanley_check",
    "gessel_stanley_checks",
    "indicator_pair_step_checks",
    "interlace_certificate",
    "ks_distance_empirical",
    "ks_distance_exact",
    "locate_mode",
    "moments_exact",
    "plateau_probability",
    "sample_statistic_histogram",
    "second_moments_by_recurrence",
    "sum_identity_check",
    "triangle_row",
    "word_statistics",
]
