"""Exact descent/plateau/ascent statistics of Stirling permutations.

Core surface: the permutation type with validation, enumeration and uniform
sampling; the statistic triangle, built by an entry recurrence and checked
against a derivative recurrence on its generating polynomials;
sign-alternation certificates that each generating polynomial has distinct
real non-positive roots and that consecutive ones interlace; and exact moment
identities with measured convergence of the standardized statistic to the
normal distribution.

``import stirperm`` loads no submodule: each public name imports its home
module when it is first read (PEP 562).
"""

__version__ = "0.1.0"

#: Each public name, grouped by the submodule that defines it
_NAMES_BY_MODULE = {
    "distribution": (
        "Moments", "indicator_pair_step_checks", "ks_distance_empirical",
        "ks_distance_exact", "moments_exact", "plateau_probability",
        "sample_statistic_histogram", "second_moments_by_recurrence",
        "sum_identity_check",
    ),
    "permutations": (
        "InvalidPermutation", "MAX_ENUMERATION_ORDER", "ResourceLimitExceeded",
        "StatCounts", "StirlingPermutation", "brute_force_triangle",
        "enumerate_words", "word_statistics",
    ),
    "polynomial": ("IntPolynomial", "double_factorial"),
    "rng": ("SplitMix64",),
    "sturm": (
        "CertificationError", "InterlaceCertificate", "RealRootCertificate",
        "certify_real_roots", "interlace_certificate",
    ),
    "triangle": (
        "ModeReport", "descent_polynomial", "gessel_stanley_check",
        "gessel_stanley_checks", "locate_mode", "triangle_row",
    ),
}
_HOME = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, or a module that defines one, imported on first read."""
    from importlib import import_module

    if name in _NAMES_BY_MODULE:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
