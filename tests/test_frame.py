"""Window, cubature, needlet evaluation, analysis/synthesis, and norms."""

import math

import numpy as np
import pytest

import direct_oracle as oracle
import torneed as tn
from torneed.frame import drop_imag
from torneed.harmonics import TWO_PI


@pytest.fixture(scope="module")
def frame1():
    return tn.NeedletFrame(2.0, 1, jmax=4)


@pytest.fixture(scope="module")
def frame2():
    return tn.NeedletFrame(2.0, 2, jmax=2)


# ---------------------------------------------------------------- window


def test_window_support_and_plateau_values():
    w = tn.build_window(2.0)
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
    w = tn.build_window(2.0)
    assert w(1.5) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_window_partition_of_unity():
    w = tn.build_window(2.0)
    ts = np.concatenate([np.linspace(1.0, 100.0, 4001), [1.0, 2.0, 4.0, 64.0]])
    total = np.zeros_like(ts)
    for j in range(12):
        total += w(ts / 2.0**j) ** 2
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


def test_window_partition_other_base():
    w = tn.build_window(1.7)
    ts = np.linspace(1.0, 40.0, 1501)
    total = np.zeros_like(ts)
    for j in range(12):
        total += w(ts / 1.7**j) ** 2
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


def test_window_moments_against_analytic_and_trapezoid():
    # I0 = (B^2-1)/(2B) exactly for a symmetric bump; I1, I2 against a
    # dense trapezoid of b(t)^2 t^q, an independent quadrature route
    for B in (2.0, 3.0):
        w = tn.build_window(B)
        assert w.moment(0) == pytest.approx((B**2 - 1) / (2 * B), rel=1e-13)
        ts = np.linspace(1.0 / B - 1e-9, B + 1e-9, 400_001)
        b2 = w(ts) ** 2
        for q in (1, 2):
            trap = np.trapezoid(b2 * ts**q, ts)
            assert w.moment(q) == pytest.approx(trap, abs=1e-7)


def test_window_moment_frozen_values():
    w = tn.build_window(2.0)
    assert w.moment(0) == pytest.approx(0.75, rel=1e-12)
    assert w.moment(1) == pytest.approx(0.8585731533997301, rel=1e-12)
    assert w.moment(2) == pytest.approx(1.0362560368990565, rel=1e-12)


def test_window_interior_frozen_values():
    # b(3/4) at B=2 sits where the ramp is at its midpoint: b^2 = Psi(0) = 1/2
    w = tn.build_window(2.0)
    assert w(0.75) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert w(1.0) == 1.0
    assert w(0.6) == pytest.approx(0.26344585876438403, rel=1e-12)
    assert w(1.3) == pytest.approx(0.9015942736681688, rel=1e-12)
    assert w(1.7) == pytest.approx(0.4325826691960368, rel=1e-12)
    w = tn.build_window(1.5)
    assert w(0.8) == pytest.approx(0.5801056054133314, rel=1e-12)
    assert w(1.2) == pytest.approx(0.8145412737044284, rel=1e-12)


def test_build_window_rejects_bad_base():
    with pytest.raises(ValueError):
        tn.build_window(1.0)


# ---------------------------------------------------------------- cubature


def test_cubature_sizes_d1():
    frame = tn.NeedletFrame(2.0, 1, jmax=5)
    assert frame.level_sizes() == [5, 9, 17, 33, 65, 129]
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


def test_needlet_matrix_matches_eval(frame1):
    grid = tn.uniform_grid(64, 1)
    mat = tn.needlet_matrix(frame1, 2, grid, m=(1,))
    K = frame1.cubature(2).K
    assert mat.shape == (64, K)
    for k in (0, 7, K - 1):
        np.testing.assert_allclose(mat[:, k], tn.needlet_eval(frame1, 2, k, grid, m=(1,)))


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
    # a denser caller-declared grid changes nothing once the band resolves
    f = lambda th: np.cos(np.asarray(th).ravel())
    ca = tn.analyze(frame1, f, band_limit=1, grid_points=129)
    cb = tn.analyze(frame1, f, band_limit=1)
    for a, b in zip(ca.levels, cb.levels):
        np.testing.assert_allclose(a, b, atol=1e-12)
    with pytest.raises(ValueError):
        tn.analyze(frame1, f, band_limit=1, grid_points=33)  # under the level band


def test_analyze_rejects_nonfinite(frame1):
    def f(th):
        th = np.asarray(th).ravel()
        out = np.cos(th)
        out[0] = np.nan
        return out

    with pytest.raises(ValueError):
        tn.analyze(frame1, f, band_limit=1)


def test_synthesize_rejects_mismatched_structure(frame1):
    coeffs = tn.CoefficientArray((0,), [np.zeros(4)], "empirical")  # K_0 is 5, not 4
    with pytest.raises(ValueError):
        tn.check_structure(frame1, coeffs)
    with pytest.raises(ValueError):
        tn.synthesize(frame1, coeffs, tn.uniform_grid(8, 1))
    with pytest.raises(ValueError):
        tn.CoefficientArray((0,), [np.zeros(5)], "made-up-provenance")


def test_drop_imag_guards_residue():
    assert drop_imag(np.array([1.0 + 1e-12j]))[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        drop_imag(np.array([1.0 + 1e-6j]))


# ---------------------------------------------------------------- coefficient arrays


def test_coefficient_array_csv_roundtrip(tmp_path, frame1):
    coeffs = tn.analyze(frame1, lambda th: np.cos(np.asarray(th).ravel()), band_limit=1)
    path = tmp_path / "coeffs.csv"
    coeffs.to_csv(path)
    back = tn.CoefficientArray.from_csv(path, coeffs.m, coeffs.provenance)
    assert len(back.levels) == len(coeffs.levels)
    for a, b in zip(coeffs.levels, back.levels):
        np.testing.assert_array_equal(a, b)  # 17 digits round-trips float64 exactly


def test_coefficient_array_csv_reads_rows_in_any_order(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("j,k,value\n1,1,4\n0,2,3\n0,0,1\n\n1,0,5\n0,1,2\n")
    back = tn.CoefficientArray.from_csv(path, (1,), "empirical")
    np.testing.assert_array_equal(back.levels[0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(back.levels[1], [5.0, 4.0])


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,1\n0,2,3\n1,0,5\n", "level 0 is missing k=1"),
        ("0,0,1\n1,0,5\n1,1,4\n1,1,6\n", "level 1 repeats k=1"),
        ("0,0,1\n2,0,5\n", "level 1 has no rows"),
        ("0,-1,1\n0,0,5\n", "level 0 has negative k=-1"),
        ("0,0,1\n-1,0,5\n", "negative level j=-1"),
    ],
)
def test_coefficient_array_csv_rejects_gaps_and_duplicates(tmp_path, rows, message):
    path = tmp_path / "holes.csv"
    path.write_text("j,k,value\n" + rows)
    with pytest.raises(ValueError, match=message):
        tn.CoefficientArray.from_csv(path, (1,), "empirical")


# ---------------------------------------------------------------- norms


def test_l2_norm_exact_vs_quadrature(frame1):
    # dual route: closed form via orthonormality vs dense grid quadrature
    for j in range(5):
        for m in ((0,), (1,)):
            exact = tn.needlet_l2_norm(frame1, j, m=m)
            quad = tn.needlet_lp_norm(frame1, j, m=m, p=2)
            assert quad == pytest.approx(exact, rel=1e-10)


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
    coeffs = tn.CoefficientArray((0,), [lv0, lv1], "empirical")
    got = tn.besov_sequence_norm(coeffs, s=1.0, r=2, q=2, B=2.0, d=1)
    # weights B^{j(s + d(1/2 - 1/2))} = 2^j: sqrt(5^2 + (2*2)^2)
    assert got == pytest.approx(math.hypot(5.0, 4.0))
    sup = tn.besov_sequence_norm(coeffs, s=1.0, r=np.inf, q=np.inf, B=2.0, d=1)
    # r=inf: level sup norms 4 and 1, weights 2^{j(1 + 1/2)}
    assert sup == pytest.approx(max(4.0, 2.0**1.5 * 1.0))


def test_besov_norm_empty_and_validation():
    empty = tn.CoefficientArray((0,), [], "empirical")
    assert tn.besov_sequence_norm(empty, 1.0, 2, 2, 2.0, 1) == 0.0
    some = tn.CoefficientArray((0,), [np.ones(2)], "empirical")
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
    frame = tn.build_frame(2.0, 1, 2)
    assert frame.jmax == 2
    with pytest.raises(ValueError):
        tn.NeedletFrame(1.0, 1, jmax=2)
    with pytest.raises(ValueError):
        tn.NeedletFrame(2.0, 0, jmax=2)
    with pytest.raises(ValueError):
        tn.NeedletFrame(2.0, 1, jmax=-1)


def test_frame_memory_guard():
    with pytest.raises(ValueError):
        tn.NeedletFrame(2.0, 3, jmax=8, max_points=10**6)
