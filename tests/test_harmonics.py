"""Fourier basis, frequency shells, and multi-index plumbing."""

import math

import numpy as np
import pytest

from torneed.harmonics import (
    TWO_PI,
    as_multi_index,
    as_points,
    derivative_multiplier,
    eigenvalue,
    frequency_shell,
    geodesic_distance,
    wrap_angles,
)


def fourier_basis(freqs, theta):
    """Matrix of basis values e_l(theta) = (2pi)**(-d/2) * exp(i <l, theta>).

    freqs is an (nf, d) integer array, theta anything `as_points` accepts;
    entry [t, f] is e_{freqs[f]}(theta[t]).
    """
    freqs = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
    d = freqs.shape[1]
    phase = as_points(theta, d) @ freqs.T.astype(float)
    return TWO_PI ** (-d / 2.0) * np.exp(1j * phase)


def fourier_basis_eval(freq, theta):
    """Single basis value e_l(theta) as a complex scalar."""
    freq = np.atleast_1d(np.asarray(freq, dtype=np.int64))
    return complex(fourier_basis(freq.reshape(1, -1), theta)[0, 0])


def test_wrap_angles_range_and_identity():
    th = np.array([-0.25, 0.0, 1.0, TWO_PI - 1e-12, TWO_PI, 7.0])
    w = wrap_angles(th)
    assert np.all((w >= 0.0) & (w < TWO_PI))
    assert w[1] == 0.0 and w[2] == 1.0
    assert w[4] == 0.0  # exact 2pi folds to 0, not to 2pi itself
    np.testing.assert_allclose(w[0], TWO_PI - 0.25)
    np.testing.assert_allclose(w[5], 7.0 - TWO_PI)


def test_as_multi_index_coercions():
    assert as_multi_index(None, 3) == (0, 0, 0)
    assert as_multi_index(2, 1) == (2,)
    assert as_multi_index([1, 0], 2) == (1, 0)
    with pytest.raises(ValueError):
        as_multi_index([1], 2)
    with pytest.raises(ValueError):
        as_multi_index([-1], 1)
    with pytest.raises(ValueError):
        as_multi_index(1, 2)  # bare int is ambiguous beyond d=1


def test_as_points_shapes():
    assert as_points(1.0, 1).shape == (1, 1)
    assert as_points([0.0, 1.0, 2.0], 1).shape == (3, 1)
    assert as_points([0.0, 1.0], 2).shape == (1, 2)
    assert as_points(np.zeros((5, 2)), 2).shape == (5, 2)
    with pytest.raises(ValueError):
        as_points(np.zeros((5, 3)), 2)


def test_eigenvalue_is_euclidean_norm():
    assert eigenvalue(np.array([3, 4])) == pytest.approx(5.0)
    assert eigenvalue(np.array([[1, 0], [0, 2]])) == pytest.approx([1.0, 2.0])


def test_frequency_shell_d1_oracles():
    # B=2: shell j is the open annulus (2^(j-1), 2^(j+1)), zero excluded
    s0 = frequency_shell(0, 2.0, 1)
    assert sorted(s0.ravel().tolist()) == [-1, 1]
    s1 = frequency_shell(1, 2.0, 1)
    assert sorted(s1.ravel().tolist()) == [-3, -2, 2, 3]
    s2 = frequency_shell(2, 2.0, 1)
    assert s2.shape == (10, 1)
    assert sorted(np.abs(s2.ravel()).tolist()) == [3, 3, 4, 4, 5, 5, 6, 6, 7, 7]


def test_frequency_shell_boundaries_are_strict():
    # |l| equal to B^(j-1) or B^(j+1) stays out: 1 and 4 miss shell j=1
    s1 = set(frequency_shell(1, 2.0, 1).ravel().tolist())
    assert 1 not in s1 and -1 not in s1
    assert 4 not in s1 and -4 not in s1


def test_frequency_shell_d2_size():
    s = frequency_shell(1, 2.0, 2)
    assert s.shape == (40, 1 + 1)
    norms2 = np.sum(s**2, axis=1)
    assert np.all((norms2 > 1) & (norms2 < 16))
    assert not np.any(np.all(s == 0, axis=1))


def test_frequency_shell_fractional_base():
    # non-integer B exercises the squared-threshold comparisons
    s = frequency_shell(2, 1.5, 1)
    lo, hi = 1.5 ** 1, 1.5 ** 3
    got = set(abs(v) for v in s.ravel().tolist())
    want = {l for l in range(1, 10) if lo < l < hi}
    assert got == want


def test_fourier_basis_orthonormal_on_grid():
    # uniform N-point quadrature integrates e_l conj(e_l') exactly for |l-l'| < N
    N, d = 16, 1
    grid = np.arange(N)[:, None] * (TWO_PI / N)
    freqs = np.arange(-5, 6)[:, None]
    E = fourier_basis(freqs, grid)  # (N, nf)
    gram = (TWO_PI / N) * (E.conj().T @ E)
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_fourier_basis_value_and_scalar_eval():
    th = np.array([[0.7]])
    val = fourier_basis(np.array([[3]]), th)[0, 0]
    expect = (TWO_PI ** -0.5) * np.exp(1j * 3 * 0.7)
    assert val == pytest.approx(expect)
    assert fourier_basis_eval(np.array([3]), np.array([0.7])) == pytest.approx(expect)


def test_fourier_basis_d2():
    th = np.array([[0.3, 1.1]])
    freq = np.array([[2, -1]])
    val = fourier_basis(freq, th)[0, 0]
    expect = (TWO_PI ** -1.0) * np.exp(1j * (2 * 0.3 - 1 * 1.1))
    assert val == pytest.approx(expect)


def test_derivative_multiplier_values():
    freqs = np.array([[2], [-3]])
    np.testing.assert_allclose(derivative_multiplier(freqs, (1,)), [2j, -3j])
    np.testing.assert_allclose(derivative_multiplier(freqs, (2,)), [-4.0, -9.0])
    freqs2 = np.array([[2, 3]])
    np.testing.assert_allclose(derivative_multiplier(freqs2, (1, 2)), [2j * (3j) ** 2])
    np.testing.assert_allclose(derivative_multiplier(freqs2, (0, 0)), [1.0])


def test_derivative_multiplier_differentiates_basis():
    # (d/dtheta)^2 e_l = (il)^2 e_l, checked against finite differences
    freq = np.array([4])
    h, th = 1e-5, 0.9
    fd = (
        fourier_basis_eval(freq, np.array([th + h]))
        - 2 * fourier_basis_eval(freq, np.array([th]))
        + fourier_basis_eval(freq, np.array([th - h]))
    ) / h**2
    direct = derivative_multiplier(freq[None, :], (2,))[0] * fourier_basis_eval(
        freq, np.array([th])
    )
    assert abs(fd - direct) < 1e-5


def test_geodesic_distance():
    assert geodesic_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert geodesic_distance(0.0, np.pi) == pytest.approx(np.pi)
    # d=2: per-coordinate arcs combine in l2
    a = np.array([0.1, 0.0])
    b = np.array([TWO_PI - 0.1, 0.3])
    assert geodesic_distance(a, b) == pytest.approx(math.hypot(0.2, 0.3))
