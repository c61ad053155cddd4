"""Window, cubature, needlet evaluation, analysis/synthesis, and norms."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import direct_oracle as oracle
import torneed as tn
import torneed.frame as frame_module
from torneed.estimation import thresholded_estimator
from torneed.frame import (
    MAX_GRID_POINTS,
    MAX_LEVELS,
    PHASE_BLOCK_BYTES,
    _GL_NODES,
    _GL_WEIGHTS,
    _check_structure,
    _cube_index,
    _level_fft,
    analysis_grid_size,
    block_rows,
    drop_imag,
    exceeds_grid_cap,
    size_violations,
    uniform_grid,
)
from torneed.harmonics import TWO_PI, derivative_multiplier


@pytest.fixture(scope="module")
def frame1():
    return tn.NeedletFrame(2.0, 1, jmax=4)


@pytest.fixture(scope="module")
def frame2():
    return tn.NeedletFrame(2.0, 2, jmax=2)


# ---------------------------------------------------------------- window


def test_window_support_and_plateau_values():
    w = tn.NeedletWindow(2.0)
    assert w(0.4) == 0.0  # below 1/B
    assert w(0.5) == 0.0
    assert w(2.0) == 0.0  # at and above B
    assert w(2.5) == 0.0
    assert w(1.0) == pytest.approx(1.0, abs=1e-12)
    ts = np.linspace(0.01, 3.0, 500)
    vals = w(ts)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)


def test_window_midpoint_symmetry():
    # the ramp is built from a symmetric bump, so its midpoint is exactly 1/2
    w = tn.NeedletWindow(2.0)
    assert w(1.5) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_window_partition_of_unity():
    w = tn.NeedletWindow(2.0)
    ts = np.concatenate([np.linspace(1.0, 100.0, 4001), [1.0, 2.0, 4.0, 64.0]])
    total = np.zeros_like(ts)
    for j in range(12):
        total += w(ts / 2.0**j) ** 2
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


def test_window_partition_other_base():
    w = tn.NeedletWindow(1.7)
    ts = np.linspace(1.0, 40.0, 1501)
    total = np.zeros_like(ts)
    for j in range(12):
        total += w(ts / 1.7**j) ** 2
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


def test_window_moments_against_analytic_and_trapezoid():
    # I0 = (B^2-1)/(2B) exactly for a symmetric bump; I1, I2 against a
    # dense trapezoid of b(t)^2 t^q, an independent quadrature route
    for B in (2.0, 3.0):
        w = tn.NeedletWindow(B)
        assert w.moment(0) == pytest.approx((B**2 - 1) / (2 * B), rel=1e-13)
        ts = np.linspace(1.0 / B - 1e-9, B + 1e-9, 400_001)
        b2 = w(ts) ** 2
        for q in (1, 2):
            trap = np.trapezoid(b2 * ts**q, ts)
            assert w.moment(q) == pytest.approx(trap, abs=1e-7)


def test_window_moment_frozen_values():
    w = tn.NeedletWindow(2.0)
    assert w.moment(0) == pytest.approx(0.75, rel=1e-12)
    assert w.moment(1) == pytest.approx(0.8585731533997301, rel=1e-12)
    assert w.moment(2) == pytest.approx(1.0362560368990565, rel=1e-12)


def test_window_interior_frozen_values():
    # b(3/4) at B=2 sits where the ramp is at its midpoint: b^2 = Psi(0) = 1/2
    w = tn.NeedletWindow(2.0)
    assert w(0.75) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert w(1.0) == 1.0
    assert w(0.6) == pytest.approx(0.26344585876438403, rel=1e-12)
    assert w(1.3) == pytest.approx(0.9015942736681688, rel=1e-12)
    assert w(1.7) == pytest.approx(0.4325826691960368, rel=1e-12)
    w = tn.NeedletWindow(1.5)
    assert w(0.8) == pytest.approx(0.5801056054133314, rel=1e-12)
    assert w(1.2) == pytest.approx(0.8145412737044284, rel=1e-12)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(8)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


def test_window_rejects_bad_base():
    with pytest.raises(ValueError):
        tn.NeedletWindow(1.0)


def _two_plateau_squared(window, t):
    """The reference b(t)^2: both plateaus at every point, max(phi(t/B) - phi(t), 0)."""
    t = np.asarray(t, dtype=float)
    return np.maximum(window._plateau(t / window.B) - window._plateau(t), 0.0)


@st.composite
def _scales_and_points(draw):
    """B in (1, 8] and points in [-1, 2B], plus 1/B, 1 and B and their float neighbours."""
    B = draw(st.floats(1.0, 8.0, exclude_min=True))
    drawn = draw(st.lists(st.floats(-1.0, 2.0 * B), min_size=1, max_size=30))
    edges = [1.0 / B, 1.0, B]
    near = [float(np.nextafter(e, side)) for e in edges for side in (-math.inf, math.inf)]
    return B, np.array(drawn + edges + near)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_scales_and_points())
def test_one_plateau_per_point_gives_the_bits_of_two(case):
    # phi(t/B) is exactly 1 where t <= 1 and phi(t) exactly 0 from 1 on, so
    # one plateau per point gives the two-plateau difference bit for bit
    B, t = case
    window = tn.NeedletWindow(B)
    assert window._squared(t).tobytes() == _two_plateau_squared(window, t).tobytes()
    for point in t:
        alone = window._squared(point)
        assert alone.shape == () and alone.tobytes() == _two_plateau_squared(window, point).tobytes()


def test_frames_of_one_scale_share_one_window_and_its_moments(monkeypatch):
    frame_module._ramp.cache_clear()
    frame_module._shared_window.cache_clear()
    real, integrations = frame_module._gauss_legendre, []

    def spy(fn, lo, hi):
        if fn is not frame_module._bump:  # the ramp and Psi integrate the bump, a moment b^2 u^q
            integrations.append(fn)
        return real(fn, lo, hi)

    monkeypatch.setattr(frame_module, "_gauss_legendre", spy)
    a, b, c = tn.NeedletFrame(2.0, 1, 3), tn.NeedletFrame(2, 2, 1), tn.NeedletFrame(1.5, 1, 4)
    assert a.window is b.window and a.window is not c.window
    for frame in (a, b, c, a, c):
        moments = [frame.window.moment(q) for q in range(4)]
    assert len(integrations) == 8  # once per (B, q): two scales, four orders
    assert frame_module._ramp.cache_info().misses == 1
    # a window built directly reads the same ramp, integrates its own moments, same bits
    direct = tn.NeedletWindow(1.5)
    assert direct is not c.window and direct._cumulative is c.window._cumulative
    assert [direct.moment(q) for q in range(4)] == moments
    assert len(integrations) == 12 and frame_module._ramp.cache_info().misses == 1


def test_threads_build_frames_and_take_moments_with_the_serial_bits():
    scales = (2.0, 1.5, 3.0, 2.0, 1.5, 1.7)

    def bits(B):
        frame = tn.NeedletFrame(B, 2, 2)
        values = b"".join(frame.level(j).bvals.tobytes() for j in range(frame.jmax + 1))
        return values, [frame.window.moment(q) for q in range(6)]

    serial = [bits(B) for B in scales]
    frame_module._ramp.cache_clear()
    frame_module._shared_window.cache_clear()
    results, start = [None] * len(scales), threading.Barrier(len(scales))

    def work(i):
        start.wait(timeout=60)
        results[i] = bits(scales[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(scales))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


# ---------------------------------------------------------------- cubature


def test_cubature_sizes_d1():
    frame = tn.NeedletFrame(2.0, 1, jmax=5)
    assert [frame.cubature(j).K for j in range(6)] == [5, 9, 17, 33, 65, 129]
    for j in range(6):
        cub = frame.cubature(j)
        assert cub.npts_per_dim == 2 * math.ceil(2.0 ** (j + 1)) + 1
        assert cub.weight * cub.K == pytest.approx(TWO_PI)


def test_cubature_sizes_d2(frame2):
    for j in range(3):
        cub = frame2.cubature(j)
        n = 2 * math.ceil(2.0 ** (j + 1)) + 1
        assert cub.K == n**2
        assert cub.points.shape == (n**2, 2)
        assert cub.weight * cub.K == pytest.approx(TWO_PI**2)


def test_cubature_points_are_built_on_first_read():
    # a frame keeps its shells and window values; each level's points come on
    # first read, read-only and with uniform_grid's bits: NeedletFrame(2, 3, 4)
    # keeps 4.7 MiB, less than its level-4 points alone (6.3 MiB)
    tn.NeedletFrame(2.0, 3, 0)  # the ramp table and the window are the process's, not the frame's
    tracemalloc.start()
    try:
        frame = tn.NeedletFrame(2.0, 3, 4)
        kept = tracemalloc.get_traced_memory()[0]
        cub = frame.cubature(4)
        assert kept < 5 * 2**20
        assert cub.points is cub.points
        assert tracemalloc.get_traced_memory()[0] - kept >= cub.points.nbytes
    finally:
        tracemalloc.stop()
    assert cub.K == 65**3 and cub.weight == TWO_PI**3 / cub.K
    assert cub.points.tobytes() == tn.uniform_grid(65, 3).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        cub.points[0, 0] = 1.0


def test_cubature_exact_for_band_limited(frame1):
    # quadrature must integrate trig polynomials of per-coordinate degree < N
    rng = np.random.default_rng(5)
    cub = frame1.cubature(1)  # N = 9
    th = cub.points.ravel()
    poly = np.full(th.shape, 0.37)
    for l in range(1, 9):
        c = rng.normal() + 1j * rng.normal()
        poly = poly + 2 * np.real(c * np.exp(1j * l * th))
    assert cub.weight * np.sum(poly) == pytest.approx(0.37 * TWO_PI, rel=1e-12)


def test_uniform_grid_shape():
    g = tn.uniform_grid(4, 2)
    assert g.shape == (16, 2)
    assert g.min() == 0.0 and g.max() < TWO_PI
    assert tn.uniform_grid(5, 1).shape == (5, 1)


# ---------------------------------------------------------------- needlet evaluation


def test_needlet_real_and_center_positive(frame1):
    cub = frame1.cubature(1)
    vals = tn.needlet_eval(frame1, 1, 3, cub.points)
    assert vals.dtype.kind == "f"
    assert vals[3] > 0.0  # the needlet peaks positive at its own pixel


def test_needlet_integral_vanishes(frame1):
    # zero-mean: the DC frequency is excluded from every shell
    grid = tn.uniform_grid(512, 1)
    vals = tn.needlet_eval(frame1, 2, 5, grid)
    assert abs(np.mean(vals) * TWO_PI) < 1e-12


def test_needlet_translation_invariance(frame1):
    # psi_{j,k}(theta) depends only on theta - xi_{j,k}
    cub = frame1.cubature(2)
    th = np.linspace(0, TWO_PI, 33)[:-1]
    v0 = tn.needlet_eval(frame1, 2, 0, th)
    shift = cub.points[4, 0] - cub.points[0, 0]
    v4 = tn.needlet_eval(frame1, 2, 4, tn.wrap_angles(th + shift))
    np.testing.assert_allclose(v0, v4, atol=1e-12)


def test_needlet_eval_validates_k(frame1):
    with pytest.raises(ValueError):
        tn.needlet_eval(frame1, 1, 9, 0.0)  # K_1 = 9, valid k is 0..8
    with pytest.raises(ValueError):
        tn.needlet_eval(frame1, 1, -1, 0.0)


def test_needlet_d2_derivative_finite_difference(frame2):
    th = np.array([[1.2, 2.1]])
    h = 1e-5
    va = tn.needlet_eval(frame2, 1, 7, th, m=(1, 0))[0]
    up = tn.needlet_eval(frame2, 1, 7, th + [[h, 0]])[0]
    dn = tn.needlet_eval(frame2, 1, 7, th - [[h, 0]])[0]
    assert va == pytest.approx((up - dn) / (2 * h), abs=1e-6)


# ---------------------------------------------------------------- analysis / synthesis


def test_parseval_cos(frame1):
    coeffs = tn.analyze(frame1, lambda th: np.cos(np.asarray(th).ravel()), band_limit=1)
    total = sum(float(np.sum(lv**2)) for lv in coeffs.levels)
    assert total == pytest.approx(math.pi, rel=1e-10)


def test_parseval_d2(frame2):
    # f = cos(theta_1): ||f||^2 over T^2 is 2 pi^2
    def f(pts):
        return np.cos(np.asarray(pts)[:, 0])

    coeffs = tn.analyze(frame2, f, band_limit=1)
    total = sum(float(np.sum(lv**2)) for lv in coeffs.levels)
    assert total == pytest.approx(2 * math.pi**2, rel=1e-10)


def test_reconstruction_removes_mean(frame1):
    rng = np.random.default_rng(11)
    a = rng.normal(size=5)

    def f(th):
        th = np.asarray(th).ravel()
        out = np.full(th.shape, 1.0)
        for l in range(1, 5):
            out = out + a[l] * np.cos(l * th + a[l - 1])
        return out

    grid = tn.uniform_grid(256, 1)
    coeffs = tn.analyze(frame1, f, band_limit=4)
    recon = tn.synthesize(frame1, coeffs, grid)
    np.testing.assert_allclose(recon, f(grid) - 1.0, atol=1e-10)


def test_reconstruction_d2(frame2):
    def f(pts):
        pts = np.asarray(pts)
        return 0.2 + np.cos(pts[:, 0]) * np.sin(2 * pts[:, 1]) + 0.5 * np.sin(pts[:, 1])

    grid = tn.uniform_grid(24, 2)
    coeffs = tn.analyze(frame2, f, band_limit=3)
    recon = tn.synthesize(frame2, coeffs, grid)
    np.testing.assert_allclose(recon, f(grid) - 0.2, atol=1e-10)


def test_analyze_derivative_matches_derivative_analysis(frame1):
    # coefficients of f under derived needlets = coefficients of f' under plain ones
    def f(th):
        th = np.asarray(th).ravel()
        return np.cos(2 * th) + 0.3 * np.sin(5 * th)

    def fprime(th):
        th = np.asarray(th).ravel()
        return -2 * np.sin(2 * th) + 1.5 * np.cos(5 * th)

    c1 = tn.analyze(frame1, f, m=(1,), band_limit=5)
    c0 = tn.analyze(frame1, fprime, band_limit=5)
    for lv1, lv0 in zip(c1.levels, c0.levels):
        np.testing.assert_allclose(lv1, lv0, atol=1e-11)


def test_analyze_fft_matches_direct(frame1):
    def f(th):
        th = np.asarray(th).ravel()
        return np.cos(3 * th) - 0.7 * np.sin(th)

    direct = oracle.analyze(frame1, f, m=(1,), band_limit=3)
    fast = tn.analyze(frame1, f, m=(1,), band_limit=3)
    for a, b in zip(direct.levels, fast.levels):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_analyze_fft_matches_direct_d2(frame2):
    def f(pts):
        pts = np.asarray(pts)
        return np.sin(pts[:, 0] + 2 * pts[:, 1])

    direct = oracle.analyze(frame2, f, band_limit=3)
    fast = tn.analyze(frame2, f, band_limit=3)
    for a, b in zip(direct.levels, fast.levels):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_analyze_grid_points_override(frame1):
    # a denser grid, from a larger declared band, changes nothing once the band resolves
    f = lambda th: np.cos(np.asarray(th).ravel())
    ca = tn.analyze(frame1, f, band_limit=32)
    cb = tn.analyze(frame1, f, band_limit=1)
    for a, b in zip(ca.levels, cb.levels):
        np.testing.assert_allclose(a, b, atol=1e-12)
    with pytest.raises(ValueError, match="band_limit"):
        tn.analyze(frame1, f, band_limit=-3)  # would shrink the grid under the level band


def test_analyze_rejects_nonfinite(frame1):
    def f(th):
        th = np.asarray(th).ravel()
        out = np.cos(th)
        out[0] = np.nan
        return out

    with pytest.raises(ValueError):
        tn.analyze(frame1, f, band_limit=1)


def _per_level_analysis(frame, density, m, jmax):
    """analyze written out level by level: the bits analyze must reproduce."""
    d = frame.d
    npts = analysis_grid_size(frame.B, jmax, density.band_limit)
    grid = uniform_grid(npts, d)
    fvals = np.asarray(density.pdf(grid[:, 0] if d == 1 else grid), dtype=float)
    norm = (TWO_PI / npts) ** d * TWO_PI ** (-d / 2.0)
    spectrum = np.fft.fftn(fvals.reshape((npts,) * d))
    levels = []
    for j in range(jmax + 1):
        lev = frame.level(j)
        a = norm * spectrum[_cube_index(lev.freqs, npts)]
        mult = np.atleast_1d(derivative_multiplier(lev.freqs, m))
        N = lev.cubature.npts_per_dim
        cube = np.zeros((N,) * d, dtype=complex)
        cube[_cube_index(lev.freqs, N)] = lev.bvals * mult * a
        raw = _level_fft(cube, d, inverse=True).reshape(-1)
        scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-d / 2.0)
        levels.append((scale * raw).real)
    return np.concatenate(levels)


@pytest.mark.parametrize(
    "name, d, m",
    [
        ("wrapped_normal(1.0)", 1, (0,)),
        ("wrapped_normal(1.0)", 1, (1,)),
        ("wrapped_normal(1.0)", 1, (2,)),
        ("product(wrapped_normal(1.0),wrapped_normal(0.7))", 2, (1, 0)),
    ],
)
def test_analyze_bits_are_the_per_level_quadrature(name, d, m):
    # the Monte Carlo coefficient proxy compares estimates against these bits
    frame = tn.NeedletFrame(2.0, d, jmax=4 if d == 1 else 3)
    density = tn.density_from_name(name, d)
    coeffs = tn.analyze(frame, density, m)
    got = np.concatenate(coeffs.levels)
    assert got.tobytes() == _per_level_analysis(frame, density, m, frame.jmax).tobytes()


def test_synthesize_rejects_mismatched_structure(frame1):
    coeffs = tn.CoefficientArray((0,), [np.zeros(4)])  # K_0 is 5, not 4
    with pytest.raises(ValueError):
        _check_structure(frame1, coeffs)
    with pytest.raises(ValueError):
        tn.synthesize(frame1, coeffs, tn.uniform_grid(8, 1))


def test_drop_imag_guards_residue():
    assert drop_imag(np.array([1.0 + 1e-12j]))[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        drop_imag(np.array([1.0 + 1e-6j]))


def test_drop_imag_residue_is_relative_to_the_largest_real_part():
    # rounding of 1e-14 relative on values of 1e5 passes; the same residue
    # on values of order 1, or a residue of 1e-6 relative, does not. Below
    # 1 the bound stays absolute: an array of pure rounding passes
    assert drop_imag(np.array([1e5 + 1e-9j, -2e5 + 1.9e-4j]))[1] == -2e5
    with pytest.raises(ValueError, match="imaginary residue 2.000e-03 exceeds 2.000e-04"):
        drop_imag(np.array([1e5 + 1e-9j, -2e5 + 2e-3j]), "a test")
    with pytest.raises(ValueError, match="exceeds 1.000e-09"):
        drop_imag(np.array([1.0 + 2e-9j]))
    assert drop_imag(np.array([1e-17 + 5e-10j]))[0] == 1e-17


# ---------------------------------------------------------------- norms


def test_l2_norm_exact_vs_quadrature(frame1):
    # dual route: closed form via orthonormality vs dense grid quadrature
    for j in range(5):
        for m in ((0,), (1,)):
            exact = tn.needlet_l2_norm(frame1, j, m=m)
            quad = tn.needlet_lp_norm(frame1, j, m=m, p=2)
            assert quad == pytest.approx(exact, rel=1e-10)


def _peak_bytes(fn):
    """Peak bytes allocated while fn runs, above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synthesis_on_a_uniform_grid_stays_near_its_points_bytes():
    # d=2, four levels live, G=257: the grid path's last contraction forms one
    # complex (G, G) array (the points' bytes) and the real result (half of
    # them); the same points through spectrum_values peak near 13 times
    frame = tn.NeedletFrame(2.0, 2, 3)
    rng = np.random.default_rng(4)
    coeffs = tn.CoefficientArray((0, 0), [rng.normal(size=frame.cubature(j).K) for j in range(4)])
    grid = tn.uniform_grid(257, 2)
    assert _peak_bytes(lambda: tn.synthesize(frame, coeffs, grid)) <= 1.75 * grid.nbytes


def test_family_synthesis_on_a_uniform_grid_is_chunked():
    # d=2, four levels live, G=257, an 8-row family: the family axis is
    # evaluated in chunks of block_rows(8, G^2) = 3 rows, so the peak is the
    # real (8, G^2) result plus one chunk's complex values, which fit
    # PHASE_BLOCK_BYTES, and tables a fraction of the points' bytes; the
    # unchunked complex (8, G^2) stack alone would be 8 times the points' bytes
    frame = tn.NeedletFrame(2.0, 2, 3)
    rng = np.random.default_rng(5)
    R = 8
    coeffs = tn.CoefficientArray(
        (0, 0), [rng.normal(size=(R, frame.cubature(j).K)) for j in range(4)]
    )
    grid = tn.uniform_grid(257, 2)
    assert block_rows(R, grid.shape[0]) == 3
    bound = grid.nbytes + R * grid.shape[0] * 8 + PHASE_BLOCK_BYTES
    assert _peak_bytes(lambda: tn.synthesize(frame, coeffs, grid)) <= bound


def test_lp_norm_memory_is_bounded():
    # d=2, j=3: one needlet on a 128^2 grid; a dense (points x shell) phase
    # matrix for the same grid would take about 195 MiB
    assert _peak_bytes(lambda: tn.needlet_lp_norm(tn.NeedletFrame(2, 2, 3), 3)) <= 16 * 2**20


def test_needlet_eval_memory_is_bounded():
    # d=2, j=3 on the 129^2 grid: the box spectrum goes through row-blocked
    # phase tables, never a (points x shell) matrix, which would take 197 MiB
    frame = tn.NeedletFrame(2, 2, 3)
    grid = tn.uniform_grid(129, 2)
    k = frame.cubature(3).K // 2
    assert _peak_bytes(lambda: tn.needlet_eval(frame, 3, k, grid)) <= 16 * 2**20


def test_lp_norm_scaling_stability(frame1):
    for m in ((0,), (1,)):
        for p in (1.0, 2.0, np.inf):
            ratios = []
            for j in range(1, 5):
                norm = tn.needlet_lp_norm(frame1, j, m=m, p=p)
                pexp = 0.5 if math.isinf(p) else 0.5 - 1.0 / p
                ratios.append(norm / frame1.B ** (j * (sum(m) + pexp)))
            assert max(ratios) / min(ratios) < 2.0


def test_l2_norm_vs_moment_scale(frame1):
    # ||psi^(m)_j|| / (sqrt(I_{2|m|}) B^{j|m|}) settles near 1/sqrt(B)
    w = frame1.window
    for m_total in (0, 1):
        ratios = [
            tn.needlet_l2_norm(frame1, j, m=(m_total,))
            / (math.sqrt(w.moment(2 * m_total)) * frame1.B ** (j * m_total))
            for j in (3, 4)
        ]
        assert 0.5 < ratios[0] < 2.0
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.2


def test_besov_sequence_norm_hand_case():
    lv0 = np.array([3.0, 4.0])  # l2 norm 5
    lv1 = np.array([1.0, 1.0, 1.0, 1.0])  # l2 norm 2
    coeffs = tn.CoefficientArray((0,), [lv0, lv1])
    got = tn.besov_sequence_norm(coeffs, s=1.0, r=2, q=2, B=2.0, d=1)
    # weights B^{j(s + d(1/2 - 1/2))} = 2^j: sqrt(5^2 + (2*2)^2)
    assert got == pytest.approx(math.hypot(5.0, 4.0))
    sup = tn.besov_sequence_norm(coeffs, s=1.0, r=np.inf, q=np.inf, B=2.0, d=1)
    # r=inf: level sup norms 4 and 1, weights 2^{j(1 + 1/2)}
    assert sup == pytest.approx(max(4.0, 2.0**1.5 * 1.0))


@pytest.mark.parametrize("r, q", [(2, 2), (1, 3), (np.inf, 2), (3, np.inf), (np.inf, np.inf)])
def test_besov_norm_of_a_stack_is_each_rows_own(r, q):
    # a (C, R) stack of estimators: one norm per row, the bits of that row alone
    frame = tn.NeedletFrame(2.0, 1, 3)
    rng = np.random.default_rng(8)
    raw = [tn.empirical_coefficients(frame, rng.normal(0.0, 1.0, 500), m=(1,)) for _ in range(3)]
    stacked = tn.CoefficientArray((1,), [np.stack([c.levels[j] for c in raw]) for j in range(4)])
    rules = [tn.ThresholdRule("hard", kappa, (1,), 500, 2.0) for kappa in (0.01, 0.3, 10.0)]
    est = thresholded_estimator(frame, stacked, rules)
    got = tn.besov_sequence_norm(est.coeffs, 1.0, r, q, 2.0, 1)
    assert got.shape == (3, 3)
    for c in range(3):
        for i in range(3):
            alone = tn.CoefficientArray((1,), [lv[c, i] for lv in est.coeffs.levels])
            want = tn.besov_sequence_norm(alone, 1.0, r, q, 2.0, 1)
            assert isinstance(want, float) and got[c, i] == want
    # kappa = 10 keeps nothing; a lower threshold keeps at least what a higher one keeps
    assert (got[:, 2] == 0.0).all() and (got[:, 0] >= got[:, 1]).all() and (got[:, 1] > 0).all()


def test_besov_norm_empty_and_validation():
    empty = tn.CoefficientArray((0,), [])
    assert tn.besov_sequence_norm(empty, 1.0, 2, 2, 2.0, 1) == 0.0
    some = tn.CoefficientArray((0,), [np.ones(2)])
    with pytest.raises(ValueError):
        tn.besov_sequence_norm(some, 1.0, 0.5, 2, 2.0, 1)


# ---------------------------------------------------------------- localization


def test_localization_profile_bounded(frame1):
    consts = [tn.localization_profile(frame1, j, 0, exponent=3.0).constant for j in range(1, 5)]
    assert all(np.isfinite(consts))
    assert max(consts) < 200.0  # quasi-exponential decay keeps the envelope constant modest
    prof = tn.localization_profile(frame1, 2, 3, m=(1,), exponent=3.0)
    assert prof.constant < 200.0
    assert prof.values.shape == prof.distances.shape


def test_localization_far_field_is_small(frame1):
    # values near the antipode are tiny relative to the needlet's scale
    j = 3
    xi = frame1.cubature(j).points[0, 0]
    far = tn.wrap_angles(np.array([xi + math.pi]))
    val = abs(tn.needlet_eval(frame1, j, 0, float(far[0])))
    scale = frame1.B ** (j * 0.5)
    assert val < 0.05 * scale


# ---------------------------------------------------------------- frame construction


def test_build_frame_and_validation():
    frame = tn.NeedletFrame(2.0, 1, 2)
    assert frame.jmax == 2
    with pytest.raises(ValueError):
        tn.NeedletFrame(1.0, 1, jmax=2)
    with pytest.raises(ValueError):
        tn.NeedletFrame(2.0, 0, jmax=2)
    with pytest.raises(ValueError):
        tn.NeedletFrame(2.0, 1, jmax=-1)


def test_frame_memory_guard():
    # level 8 needs 1025^3 = 1.1e9 cubature points, past MAX_GRID_POINTS
    with pytest.raises(ValueError, match=r"cubature of 1025\^3 points at level 8"):
        tn.NeedletFrame(2.0, 3, jmax=8)


def test_exceeds_grid_cap_is_exact_and_cheap():
    assert MAX_GRID_POINTS == 10**8
    assert not exceeds_grid_cap(10**4, 2) and exceeds_grid_cap(10**4 + 1, 2)
    assert not exceeds_grid_cap(10, 8) and exceeds_grid_cap(10, 9)
    # a power with 10^18 factors is never formed
    assert exceeds_grid_cap(2, 10**18) and not exceeds_grid_cap(1, 10**18)


def test_size_violations_names_every_cap_a_run_breaks():
    assert size_violations(2.0, 1, 4, grid=257, band_limit=40) == []
    # B**J past the float range is the one violation, whatever else is asked
    overflow = ["B=2 with J=5000 overflows a float in B**J"]
    assert size_violations(2.0, 1, 5000, grid=10**9, band_limit=10**9) == overflow
    assert size_violations(math.inf, 1, 3) == ["B=inf with J=3 overflows a float in B**J"]
    assert size_violations(1.0001, 1, MAX_LEVELS) == []
    assert size_violations(1.0001, 1, MAX_LEVELS + 1) == ["4097 levels exceed the cap 4096"]
    # every level within the cap, but not their sum: 2 * (2^26 - 2) + 25 points
    assert 2 * 2**25 + 1 <= MAX_GRID_POINTS
    assert size_violations(2.0, 1, 25) == [
        "cubature of 134217749 points over levels 0..24 exceeds the cap 100000000"
    ]
    assert size_violations(2.0, 1, 24) == []
    assert size_violations(2.0, 3, 9) == [
        "cubature of 1025^3 points at level 8 exceeds the cap 100000000"
    ]
    assert size_violations(1.0000001, 2, 10**7, grid=10**4 + 1, band_limit=10**8) == [
        "10000000 levels exceed the cap 4096",
        "evaluation grid of 10001^2 points exceeds the cap 100000000",
        "analysis grid of 200000007^2 points exceeds the cap 100000000",
    ]
    assert size_violations(2.0, 2, 3, grid=10**4) == []


def test_frame_refuses_before_building_a_level(monkeypatch):
    def no_levels(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr("torneed.frame.frequency_shell", no_levels)
    with pytest.raises(ValueError, match="^10000000 levels exceed the cap 4096$"):
        tn.NeedletFrame(1.0000001, 1, jmax=10**7 - 1)
    with pytest.raises(ValueError, match="^evaluation grid of 100000001"):
        tn.NeedletFrame(2.0, 1, jmax=3, grid=10**8 + 1)
    with pytest.raises(ValueError, match="overflows a float in B"):
        tn.NeedletFrame(1e200, 1, jmax=1)


def test_level_cap_leaves_fine_scales_buildable():
    # B = 1.01 at n = 8000, m = 1: the rule of thumb asks for 227 levels
    J = tn.truncation_level(8000, 1, 1, 1.01)
    assert J == 227
    frame = tn.NeedletFrame(1.01, 1, jmax=J - 1)
    assert frame.cubature(J - 1).K == 2 * math.ceil(1.01**J) + 1


def test_analysis_grid_guard_raises_before_allocating():
    # band limit 91 045 627 765: the grid would hold 1.8e11 points (d=1), or
    # 1833^3 = 6.2e9 for a d=3 product at sigma 0.01; both raise before any grid is built
    with pytest.raises(ValueError, match=r"analysis grid of 182091255563\^1 points exceeds the cap"):
        tn.analyze(tn.NeedletFrame(2.0, 1, jmax=3), tn.wrapped_normal(1e-10))
    cube = tn.density_from_name(
        "product(wrapped_normal(0.01),wrapped_normal(0.01),wrapped_normal(0.01))", 3
    )
    with pytest.raises(ValueError, match=r"analysis grid of 1833\^3 points"):
        tn.analyze(tn.NeedletFrame(2.0, 3, jmax=1), cube)
