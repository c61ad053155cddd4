"""Test densities: exact values, derivatives, samplers, and the name registry."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

import torneed as tn
from torneed.densities import _gaussian_derivative
from torneed.harmonics import TWO_PI, wrap_angles


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


def test_gaussian_derivative_is_the_hermeval_form_bit_for_bit():
    # the derivative imports numpy.polynomial's hermeval on first use; its
    # bits must be those of the closed form (-1)^q sigma^-q He_q(u) exp(-u^2/2)
    from numpy.polynomial import hermite_e

    x = np.random.default_rng(8).normal(0.0, 5.0, 10000)
    x[:2] = 0.0, -0.0
    for sigma in (0.4, 1.0, 2.3):
        u = x / sigma
        gauss = np.exp(-0.5 * u**2)
        assert _gaussian_derivative(0, x, sigma).tobytes() == gauss.tobytes()
        for order in range(1, 9):
            coeffs = np.zeros(order + 1)
            coeffs[order] = 1.0
            ref = (-1.0) ** order * sigma ** (-order) * hermite_e.hermeval(u, coeffs) * gauss
            assert _gaussian_derivative(order, x, sigma).tobytes() == ref.tobytes(), (sigma, order)


# ---------------------------------------------------------------- wrapped normal


def test_wrapped_normal_mass_and_positivity():
    for sigma in (0.5, 1.0, 2.0):
        wn = tn.wrapped_normal(sigma)
        assert quad_mass(wn.pdf, 1) == pytest.approx(1.0, rel=1e-10)
        grid = np.linspace(0, TWO_PI, 257)[:-1]
        assert np.all(wn.pdf(grid) > 0)


def test_wrapped_normal_literal_mass():
    # the display shape with prefactor 1/(2pi) integrates to sigma/sqrt(2pi)
    wn = tn.wrapped_normal(1.0, literal=True)
    expect = 1.0 / math.sqrt(TWO_PI)
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
    # the Hermite closed form covers every order; orders 0..6 must evaluate finite
    wn = tn.wrapped_normal(1.0)
    th = np.array([1.0])
    for order in range(7):
        assert np.isfinite(wn.derivative((order,), th)[0])


def test_wrapped_normal_sup_norm_is_peak():
    # 2^16 equispaced points plus a close look around the peak at theta = 0
    grid = tn.uniform_grid(2**16, 1).ravel()
    for sigma in (1e-3, 0.01, 0.05, 0.1, 0.35, 0.5, 0.7, 1.0, 1.7, 2.5, 4.0, 5.5, 6.9):
        near = np.linspace(-1e-6, 1e-6, 4097) * sigma
        for literal in (False, True):
            wn = tn.wrapped_normal(sigma, literal=literal)
            peak = np.max(wn.pdf(np.concatenate([grid, near])))
            assert peak <= wn.sup_norm * (1 + 8 * np.finfo(float).eps), (sigma, literal)
        # a density on the circle averages 1/(2pi), so its peak is at least that
        assert tn.wrapped_normal(sigma).sup_norm >= 1.0 / TWO_PI, sigma
    # sigma=1 wrapping correction is tiny: peak close to 1/sqrt(2 pi)
    assert tn.wrapped_normal(1.0).sup_norm == pytest.approx(1.0 / math.sqrt(TWO_PI), abs=1e-3)


# every sigma that the configs, demos, benchmark and tests use, with the
# sup_norm that the grid-and-zoom peak search found at commit 21e45a0
SUP_NORMS = {
    (0.01, False): 39.894228040143275,
    (0.35, False): 1.1398350868612364,
    (0.5, False): 0.7978845608028654,
    (0.7, False): 0.5699175434306182,
    (1.0, False): 0.39894228253600367,
    (0.01, True): 0.15915494309189535,
    (0.35, True): 0.15915494309189535,
    (0.5, True): 0.15915494309189535,
    (0.7, True): 0.15915494309189535,
    (1.0, True): 0.15915494394346597,
}


def test_wrapped_normal_sup_norm_frozen_values():
    # the closed form pdf(0) equals what the searched peak was, bit for bit
    for (sigma, literal), sup_norm in SUP_NORMS.items():
        assert tn.wrapped_normal(sigma, literal=literal).sup_norm == sup_norm


def test_wrapped_normal_rejects_unusable_sigma():
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            tn.wrapped_normal(sigma)
    # a band limit beyond any integer grid
    with pytest.raises(ValueError, match="too small"):
        tn.wrapped_normal(1e-320)
    # wider than the 21-term series resolves: at sigma = 50 it would report a
    # sup_norm below 1/(2pi), which no density on the circle has
    for sigma in (7.0, 10.0, 50.0):
        with pytest.raises(ValueError, match="too large"):
            tn.wrapped_normal(sigma)
        with pytest.raises(ValueError, match="too large"):
            tn.density_from_name(f"wrapped_normal({sigma})", 1)


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


@pytest.mark.parametrize(
    "sigma,digest",
    [
        (1.0, "fbe5da5a43cd17c3203ac9d944941b48b7d0ea9a07e3c1fba4ace7d7972b7028"),
        # about a third of these draws lie beyond 2pi and are reduced by np.mod
        (6.9, "86d6f6466e9772c4285402ccc968681af63da1b65644895201822bdf1d1ec92b"),
    ],
)
def test_wrapped_normal_sampler_bytes_are_pinned(sigma, digest):
    # SHA-256 of 5000 draws, recorded when the sampler reduced by np.mod(draw, 2pi)
    X = tn.wrapped_normal(sigma).sampler(np.random.default_rng(20261019), 5000)
    assert X.shape == (5000, 1)
    assert hashlib.sha256(X.tobytes()).hexdigest() == digest


class _FixedNormal:
    """Stands in for a Generator whose normal draws are fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, out):
        out[...] = self.values.reshape(out.shape)


def test_wrapped_normal_sampler_never_returns_two_pi():
    # np.mod(x, 2pi) is 2pi itself for x in (-ulp(2pi)/2, 0)
    draws = [-1e-17, -5e-324, -0.0, -TWO_PI, TWO_PI, -3.0]
    X = tn.wrapped_normal(1.0).sampler(_FixedNormal(draws), len(draws))[:, 0]
    assert np.all((X >= 0.0) & (X < TWO_PI))
    assert X[:5].tolist() == [0.0] * 5
    assert X[5] == -3.0 + TWO_PI


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


WORKSPACE_DENSITIES = [tn.uniform_density(d) for d in (1, 2, 3)] + [
    tn.density_from_name(text)
    for text in (
        "wrapped_normal(0.05)",
        "wrapped_normal(0.37)",
        "wrapped_normal(1.0)",
        "wrapped_normal(2.5)",
        "wrapped_normal(6.9)",
        "wrapped_normal_literal(1.0)",
        "product(wrapped_normal(1.0),wrapped_normal(6.9))",
        "product(uniform,wrapped_normal(0.05),product(wrapped_normal(2.5)))",
    )
]


@pytest.mark.parametrize("density", WORKSPACE_DENSITIES, ids=lambda density: density.name)
@pytest.mark.parametrize("n", [1, 5000])
def test_a_sampler_in_a_workspace_gives_the_bytes_of_a_fresh_one(density, n):
    # the workspace first holds garbage and an earlier call's draw; at the
    # pinned seed and n = 5000 the wrapped normals' bytes are those that
    # test_wrapped_normal_sampler_bytes_are_pinned pins (sigma = 1.0, 6.9)
    want = density.sampler(np.random.default_rng(20261019), n)
    work = np.full(n * density.d, np.nan)
    density.draw(np.random.default_rng(7), work)
    got = density.draw(np.random.default_rng(20261019), work)
    assert got.shape == want.shape and np.shares_memory(got, work)
    assert wrap_angles(got).tobytes() == want.tobytes()


def _drawn_in_blocks(density, seed, n, rows):
    """n points drawn in consecutive blocks of `rows` rows (the last one short), one workspace."""
    rng, d = np.random.default_rng(seed), density.d
    work, blocks = np.full(rows * d, np.nan), []
    for start in range(0, n, rows):
        b = min(rows, n - start)
        blocks.append(density.draw(rng, work[: b * d]).copy())
    return np.concatenate(blocks)


STREAMING_DENSITIES = [tn.uniform_density(d) for d in (1, 2, 3)] + [
    tn.density_from_name(text)
    for text in (
        "wrapped_normal(0.05)",
        "wrapped_normal(1.0)",
        "wrapped_normal(6.9)",
        "wrapped_normal_literal(1.0)",
    )
]


@pytest.mark.parametrize("density", STREAMING_DENSITIES, ids=lambda density: density.name)
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_a_streaming_draw_in_blocks_gives_the_bytes_of_one_draw(density, rows):
    # the row-order stream contract that lets a Monte Carlo replication draw
    # its sample one spectrum row block at a time: blocks of one row, of an
    # odd size and with a short last block (300 = 42 * 7 + 6 = 4 * 64 + 44)
    n = 300
    assert density.streams
    whole = density.draw(np.random.default_rng(20261020), np.empty(n * density.d))
    assert _drawn_in_blocks(density, 20261020, n, rows).tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "text", ["product(wrapped_normal(1.0),wrapped_normal(1.0))", "product(uniform,uniform,uniform)"]
)
def test_a_product_does_not_stream(text):
    # a product fills factor-major: the first block's second coordinates come
    # from the stream's first draws, not from those after the first factor's n
    density = tn.density_from_name(text)
    n = 300
    assert not density.streams
    whole = density.draw(np.random.default_rng(20261020), np.empty(n * density.d))
    assert _drawn_in_blocks(density, 20261020, n, 64).tobytes() != whole.tobytes()


# ---------------------------------------------------------------- registry


def test_density_from_name_forms():
    assert tn.density_from_name("uniform", 1).name == "uniform"
    assert tn.density_from_name("uniform", 3).d == 3
    wn = tn.density_from_name("wrapped_normal(0.5)", 1)
    assert wn.d == 1 and quad_mass(wn.pdf, 1) == pytest.approx(1.0, rel=1e-10)
    lit = tn.density_from_name("wrapped_normal_literal(1.0)", 1)
    assert quad_mass(lit.pdf, 1) == pytest.approx(1.0 / math.sqrt(TWO_PI), rel=1e-10)
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


# name, sup_norm, band_limit and the first three draws at seed 2024, recorded at
# commit 271fe72, which built every product factor separately, as the registry
# does again
PRODUCT_FACTS = {
    "product(wrapped_normal(1.0), wrapped_normal(1.0))": (
        "product(wrapped_normal(1),wrapped_normal(1))",
        0.15915494479503658,
        11,
        [[1.0288568739519013, 5.310005791705021], [1.6419200406711503, 4.890385210802718],
         [1.1467195295966137, 0.06719635507109722]],
    ),
    "product(wrapped_normal(1.0),wrapped_normal(0.7))": (
        "product(wrapped_normal(1),wrapped_normal(0.7))",
        0.22736420563352283,
        15,
        [[1.0288568739519013, 5.601959646347391], [1.6419200406711503, 5.308225239715778],
         [1.1467195295966137, 0.04703744854976805]],
    ),
}


@pytest.mark.parametrize("text", sorted(PRODUCT_FACTS))
def test_density_from_name_builds_each_distinct_factor_once(text):
    name, sup_norm, band, draws = PRODUCT_FACTS[text]
    prod = tn.density_from_name(text, 2)
    assert (prod.name, prod.sup_norm, prod.band_limit) == (name, sup_norm, band)
    assert prod.sampler(np.random.default_rng(2024), 3).tolist() == draws
