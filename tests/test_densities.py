"""Test densities: exact values, derivatives, samplers, and the name registry."""

import math

import numpy as np
import pytest
from scipy import stats

import torneed as tn
from torneed.densities import _gaussian_derivative, _refine_max
from torneed.harmonics import TWO_PI


def quad_mass(pdf, d, npts=2048):
    grid = tn.uniform_grid(npts, d)
    return float(np.mean(pdf(grid))) * TWO_PI**d


def fd_derivative(pdf, m_total, theta, h=1e-4):
    # central differences of the pdf along a single coordinate (d=1)
    if m_total == 1:
        return (pdf(theta + h) - pdf(theta - h)) / (2 * h)
    if m_total == 2:
        return (pdf(theta + h) - 2 * pdf(theta) + pdf(theta - h)) / h**2
    raise AssertionError


# ---------------------------------------------------------------- uniform


def test_uniform_values_and_derivatives():
    u = tn.uniform_density(1)
    th = np.linspace(0, TWO_PI, 17)[:-1]
    np.testing.assert_allclose(u.pdf(th), 1.0 / TWO_PI)
    np.testing.assert_allclose(u.derivative((0,), th), 1.0 / TWO_PI)
    np.testing.assert_allclose(u.derivative((1,), th), 0.0)
    assert u.sup_norm == pytest.approx(1.0 / TWO_PI)
    assert quad_mass(u.pdf, 1) == pytest.approx(1.0, rel=1e-12)


def test_uniform_sampler_range_and_mean():
    u = tn.uniform_density(2)
    rng = np.random.default_rng(3)
    X = u.sampler(rng, 5000)
    assert X.shape == (5000, 2)
    assert np.all((X >= 0) & (X < TWO_PI))
    assert np.mean(X) == pytest.approx(np.pi, abs=0.1)


# ---------------------------------------------------------------- gaussian derivative helper


def test_gaussian_derivative_closed_forms():
    x = np.linspace(-3, 3, 31)
    sigma = 0.8
    g = np.exp(-0.5 * (x / sigma) ** 2)
    np.testing.assert_allclose(_gaussian_derivative(0, x, sigma), g)
    np.testing.assert_allclose(_gaussian_derivative(1, x, sigma), -x / sigma**2 * g)
    np.testing.assert_allclose(
        _gaussian_derivative(2, x, sigma), (x**2 / sigma**4 - 1 / sigma**2) * g, atol=1e-14
    )


def test_gaussian_derivative_matches_finite_differences():
    sigma, h = 1.3, 1e-5
    for order in (1, 2, 3):
        x = np.linspace(-2, 2, 9)
        lo = _gaussian_derivative(order - 1, x - h, sigma)
        hi = _gaussian_derivative(order - 1, x + h, sigma)
        np.testing.assert_allclose(_gaussian_derivative(order, x, sigma), (hi - lo) / (2 * h), atol=1e-8)


# ---------------------------------------------------------------- wrapped normal


def test_wrapped_normal_mass_and_positivity():
    for sigma in (0.5, 1.0, 2.0):
        wn = tn.wrapped_normal(sigma)
        assert quad_mass(wn.pdf, 1) == pytest.approx(1.0, rel=1e-10)
        grid = np.linspace(0, TWO_PI, 257)[:-1]
        assert np.all(wn.pdf(grid) > 0)
        assert wn.mass == 1.0


def test_wrapped_normal_literal_mass():
    # the display shape with prefactor 1/(2pi) integrates to sigma/sqrt(2pi)
    wn = tn.wrapped_normal(1.0, literal=True)
    expect = 1.0 / math.sqrt(TWO_PI)
    assert wn.mass == pytest.approx(expect, rel=1e-12)
    assert quad_mass(wn.pdf, 1) == pytest.approx(expect, rel=1e-10)


def test_wrapped_normal_periodicity():
    wn = tn.wrapped_normal(1.0)
    th = np.linspace(0, TWO_PI, 33)[:-1]
    np.testing.assert_allclose(wn.pdf(th), wn.pdf(th + TWO_PI), atol=1e-14)
    np.testing.assert_allclose(wn.derivative((1,), th), wn.derivative((1,), th - TWO_PI), atol=1e-14)


def test_wrapped_normal_derivatives_match_finite_differences():
    wn = tn.wrapped_normal(1.0)
    th = np.linspace(0.1, TWO_PI - 0.1, 41)
    for m_total in (1, 2):
        fd = fd_derivative(wn.pdf, m_total, th)
        np.testing.assert_allclose(wn.derivative((m_total,), th), fd, atol=1e-6)


def test_wrapped_normal_derivative_orders_advertised():
    # max_derivative_order advertises what the closed form covers; every
    # advertised order must evaluate finite
    wn = tn.wrapped_normal(1.0)
    th = np.array([1.0])
    assert wn.max_derivative_order >= 4
    for order in range(wn.max_derivative_order + 1):
        assert np.isfinite(wn.derivative((order,), th)[0])


def test_wrapped_normal_sup_norm_is_peak():
    wn = tn.wrapped_normal(1.0)
    grid = np.linspace(0, TWO_PI, 4096, endpoint=False)
    assert wn.sup_norm >= np.max(wn.pdf(grid)) - 1e-12
    # sigma=1 wrapping correction is tiny: peak close to 1/sqrt(2 pi)
    assert wn.sup_norm == pytest.approx(1.0 / math.sqrt(TWO_PI), abs=1e-3)


def test_wrapped_normal_sup_norm_frozen_values():
    # the peak sits at theta = 0, which the probe grid contains
    assert tn.wrapped_normal(1.0).sup_norm == pytest.approx(0.39894228253600367, rel=1e-15)
    assert tn.wrapped_normal(0.5).sup_norm == pytest.approx(0.7978845608028654, rel=1e-15)
    literal = tn.wrapped_normal(1.0, literal=True)
    assert literal.sup_norm == pytest.approx(0.15915494394346597, rel=1e-15)


def test_refine_max_finds_a_peak_between_probe_points():
    # a spike of width 1e-3 whose top lies 0.2 probe steps off the nearest probe point
    top = 1.2345678901234

    def spike(t):
        return np.exp(-(((t - top) / 1e-3) ** 2))

    probe = np.linspace(0.0, TWO_PI, 4097)
    at = probe[int(np.argmax(spike(probe)))]
    assert spike(at) < 0.95
    assert _refine_max(spike, at, TWO_PI / 4096) == pytest.approx(1.0, abs=1e-12)


def test_wrapped_normal_rejects_unusable_sigma():
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            tn.wrapped_normal(sigma)
    # a band limit beyond any integer grid
    with pytest.raises(ValueError, match="too small"):
        tn.wrapped_normal(1e-320)


def test_wrapped_normal_band_limit_truncates_spectrum():
    # Fourier coefficients decay like exp(-sigma^2 l^2 / 2); past the declared
    # band they are below double precision
    wn = tn.wrapped_normal(1.0)
    assert math.exp(-0.5 * wn.band_limit**2) < 1e-15
    grid = tn.uniform_grid(256, 1).ravel()
    vals = wn.pdf(grid)
    spectrum = np.fft.fft(vals) / 256
    assert abs(spectrum[wn.band_limit]) < 1e-15
    assert abs(spectrum[3]) > 1e-4  # the band is not vacuous


def test_wrapped_normal_sampler_exact_distribution():
    wn = tn.wrapped_normal(1.0)
    rng = np.random.default_rng(tn.child_seed(99, 0))
    X = wn.sampler(rng, 4000)
    assert X.shape == (4000, 1)
    assert np.all((X >= 0) & (X < TWO_PI))

    def cdf(x):
        ks = np.arange(-8, 9)
        return np.sum(stats.norm.cdf(x + TWO_PI * ks) - stats.norm.cdf(TWO_PI * ks))

    res = stats.kstest(X.ravel(), np.vectorize(cdf))
    assert res.pvalue > 1e-3


def test_wrapped_normal_sampler_circular_moment():
    # E exp(iX) = exp(-sigma^2/2) for the wrapped normal
    wn = tn.wrapped_normal(1.0)
    rng = np.random.default_rng(tn.child_seed(99, 1))
    X = wn.sampler(rng, 20000).ravel()
    emp = np.mean(np.exp(1j * X))
    assert abs(emp - math.exp(-0.5)) < 4.0 / math.sqrt(20000)


def test_wrapped_normal_rejects_bad_sigma():
    with pytest.raises(ValueError):
        tn.wrapped_normal(0.0)
    with pytest.raises(ValueError):
        tn.wrapped_normal(-1.0)


# ---------------------------------------------------------------- products


def test_product_density_values_and_mass():
    wn = tn.wrapped_normal(1.0)
    u = tn.uniform_density(1)
    prod = tn.product_density([wn, u])
    assert prod.d == 2
    pts = np.array([[0.5, 1.0], [3.0, 0.2]])
    np.testing.assert_allclose(prod.pdf(pts), wn.pdf(pts[:, 0]) * u.pdf(pts[:, 1]))
    assert quad_mass(prod.pdf, 2, npts=128) == pytest.approx(1.0, rel=1e-8)
    assert prod.sup_norm == pytest.approx(wn.sup_norm * u.sup_norm)


def test_product_density_partial_derivatives():
    wn = tn.wrapped_normal(1.0)
    prod = tn.product_density([wn, wn])
    pts = np.array([[1.0, 2.0], [4.0, 0.3]])
    got = prod.derivative((1, 0), pts)
    expect = wn.derivative((1,), pts[:, 0]) * wn.pdf(pts[:, 1])
    np.testing.assert_allclose(got, expect)
    got2 = prod.derivative((1, 2), pts)
    expect2 = wn.derivative((1,), pts[:, 0]) * wn.derivative((2,), pts[:, 1])
    np.testing.assert_allclose(got2, expect2)


def test_product_sampler_independence():
    wn = tn.wrapped_normal(1.0)
    u = tn.uniform_density(1)
    prod = tn.product_density([wn, u])
    rng = np.random.default_rng(8)
    X = prod.sampler(rng, 3000)
    assert X.shape == (3000, 2)
    corr = np.corrcoef(np.cos(X[:, 0]), np.cos(X[:, 1]))[0, 1]
    assert abs(corr) < 0.08


# ---------------------------------------------------------------- registry


def test_density_from_name_forms():
    assert tn.density_from_name("uniform", 1).name == "uniform"
    assert tn.density_from_name("uniform", 3).d == 3
    wn = tn.density_from_name("wrapped_normal(0.5)", 1)
    assert wn.d == 1 and wn.mass == 1.0
    lit = tn.density_from_name("wrapped_normal_literal(1.0)", 1)
    assert lit.mass == pytest.approx(1.0 / math.sqrt(TWO_PI))
    prod = tn.density_from_name("product(wrapped_normal(1.0),uniform)", 2)
    assert prod.d == 2
    three = tn.density_from_name("product(uniform,uniform,uniform)", 3)
    assert three.d == 3


def test_density_from_name_rejects_unknown_and_mismatch():
    with pytest.raises(ValueError, match="uniform"):
        tn.density_from_name("mystery_density", 1)
    with pytest.raises(ValueError):
        tn.density_from_name("wrapped_normal(1.0)", 2)  # d mismatch
    with pytest.raises(ValueError):
        tn.density_from_name("wrapped_normal(oops)", 1)
