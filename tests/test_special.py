import math

import pytest

from stirperm.special import chi_square_sf, normal_cdf, normal_pdf


def _erfc_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_normal_cdf_matches_libm_erfc_on_grid():
    points = [k / 8 for k in range(-71, 72)] + [-8.9, -6.5, 6.5, 8.9]
    for x in points:
        assert abs(normal_cdf(x) - _erfc_cdf(x)) < 1e-13, x


def test_normal_cdf_symmetry_and_center():
    assert normal_cdf(0.0) == 0.5
    for x in (0.3, 1.7, 4.2):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-14


def test_normal_cdf_tail_clamp_is_within_budget():
    # the true tail beyond 9 is below 1.2e-19, far inside 1e-12 absolute
    assert normal_cdf(9.5) == 1.0
    assert normal_cdf(-9.5) == 0.0
    assert _erfc_cdf(-9.0) < 1e-18


def test_normal_cdf_rejects_nan():
    with pytest.raises(ValueError):
        normal_cdf(float("nan"))


def test_normal_pdf_normalization_by_riemann_sum():
    step = 1e-3
    total = sum(normal_pdf(-8 + k * step) for k in range(16001)) * step
    assert abs(total - 1.0) < 1e-6


def test_chi_square_sf_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    # at df = 2026 and x = 2000, e^(-x/2) underflows while the tail is ~0.6
    for df in (2, 4, 14, 40, 102, 2026):
        for x in (0.0, 0.5, 3.2, 9.4, 36.12, 80.0, 250.0, 2000.0):
            mine = chi_square_sf(x, df)
            ref = float(stats.chi2.sf(x, df))
            assert abs(mine - ref) < 1e-12 + 1e-9 * ref, (x, df)


def test_chi_square_sf_edges():
    assert chi_square_sf(0.0, 8) == 1.0
    with pytest.raises(ValueError):
        chi_square_sf(-1.0, 4)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


@pytest.mark.parametrize("df", [1, 3, 101])
def test_chi_square_sf_refuses_odd_df(df):
    with pytest.raises(ValueError):
        chi_square_sf(1.0, df)
