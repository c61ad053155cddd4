"""Fourier basis, frequency shells, and multi-index plumbing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


def _mod_reference(x):
    """np.mod with the 2pi that rounding can leave folded to 0: what wrap_angles promises."""
    with np.errstate(invalid="ignore"):  # np.mod of an infinity
        m = np.mod(x, TWO_PI)
    return np.where(m >= TWO_PI, 0.0, m)


# signed zeros, the smallest subnormal, tiny negatives whose np.mod rounds to 2pi, NaN, infinities
WRAP_EDGES = [0.0, -0.0, -5e-324, -1e-300, -(2.0**-60), math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(-60, 60),
    ulps=st.integers(-4, 4),
    draws=st.lists(st.floats(-60 * 6.9, 60 * 6.9), max_size=16),
)
@example(k=0, ulps=-1, draws=[])
@example(k=1, ulps=0, draws=[-TWO_PI, TWO_PI])
def test_wrap_angles_is_mod_with_two_pi_folded_bit_for_bit(k, ulps, draws):
    # k 2pi a few ulps either way, the edges, and draws out to 60 sigma at the
    # widest wrapped normal (sigma = 6.9), which take np.mod's branch
    near = k * TWO_PI
    for _ in range(abs(ulps)):
        near = np.nextafter(near, math.copysign(math.inf, ulps))
    x = np.array([near, *WRAP_EDGES, *draws])
    with np.errstate(invalid="ignore"):
        got = wrap_angles(x)
    assert got.view(np.uint64).tobytes() == _mod_reference(x).view(np.uint64).tobytes()
    # any shape, and a point set already in [0, 2pi) on the fast path alone
    with np.errstate(invalid="ignore"):
        assert wrap_angles(x.reshape(-1, 1)).shape == (x.size, 1)
    inside = _mod_reference(np.array(draws))
    assert wrap_angles(inside).view(np.uint64).tobytes() == inside.view(np.uint64).tobytes()


def test_wrap_angles_of_scalars_and_empty_arrays():
    assert wrap_angles(-0.25).shape == () and float(wrap_angles(-0.25)) == TWO_PI - 0.25
    assert wrap_angles(np.empty((0, 2))).shape == (0, 2)


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


def _shell_by_brute_force(j, B, d):
    """Every l of the (2top+1)^d cube, one by one in lexicographic order, within the bounds."""
    top = math.ceil(B ** (j + 1)) - 1
    lo, hi = B ** (2 * (j - 1)), B ** (2 * (j + 1))
    cube = itertools.product(range(-top, top + 1), repeat=d)
    return [l for l in cube if lo < sum(v * v for v in l) < hi]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 3),
    j=st.integers(0, 5),
    B=st.sampled_from([1.1, 1.5, 2.0, math.sqrt(2.0), 2.5, 3.0, 7.0]),
)
@example(d=3, j=3, B=2.0)
@example(d=2, j=5, B=2.0)
def test_frequency_shell_is_the_brute_force_shell(d, j, B):
    # the outer sums of per-axis squares keep the cube's order and values
    assume((2 * math.ceil(B ** (j + 1)) - 1) ** d <= 40_000)
    shell, want = frequency_shell(j, B, d), _shell_by_brute_force(j, B, d)
    assert shell.dtype == np.int64 and shell.flags.c_contiguous
    assert shell.shape == (len(want), d)
    assert shell.tolist() == [list(l) for l in want]


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


def test_derivative_multiplier_is_exact_at_high_orders():
    # i^|m| prod l_i^m_i: the part that must vanish is exactly zero, also
    # where numpy's complex power goes through exp and log (|m| >= 100)
    freqs = np.array([[3], [-2], [5]])
    for order in (100, 101, 102, 103, 400):
        mult = derivative_multiplier(freqs, (order,))
        sign = (1, 1, -1, -1)[order % 4]  # i^order is 1, i, -1 or -i
        value, zero = (mult.imag, mult.real) if order % 2 else (mult.real, mult.imag)
        np.testing.assert_array_equal(value, sign * freqs[:, 0].astype(float) ** order)
        assert not zero.any()
    # below that it equals the complex power, value for value
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        freqs = rng.integers(-1024, 1025, (50, d))
        for m in itertools.product(range(4), repeat=d):
            direct = np.prod((1j * freqs.astype(complex)) ** np.asarray(m), axis=-1)
            np.testing.assert_array_equal(derivative_multiplier(freqs, m), direct)


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
