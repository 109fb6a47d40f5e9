import pytest

from stirperm.special import chi_square_sf, normal_cdf, normal_pdf


# normal_cdf is libm's erfc; scipy's ndtr is an independent implementation
_GRID = [k / 8 for k in range(-71, 72)] + [-8.9, -6.5, 6.5, 8.9]
_TAILS = [-38.0, -12.0, -9.5, 9.5, 12.0]


def test_normal_cdf_matches_scipy_ndtr_on_grid():
    special = pytest.importorskip("scipy.special")
    for x in _GRID + _TAILS:
        assert abs(normal_cdf(x) - float(special.ndtr(x))) < 1e-15, x


def test_normal_cdf_symmetry_and_center():
    assert normal_cdf(0.0) == 0.5
    for x in (0.3, 1.7, 4.2):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) < 1e-14


def test_normal_cdf_tails_match_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    assert normal_cdf(9.5) == normal_cdf(40.0) == 1.0
    # far below the 1e-15 absolute bound the lower tail keeps relative accuracy
    for x in (-9.5, -12.0, -20.0):
        ref = float(special.ndtr(x))
        assert 0.0 < ref and abs(normal_cdf(x) - ref) < 1e-12 * ref, x


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
