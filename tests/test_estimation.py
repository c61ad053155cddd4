"""Test thresholding rules, empirical coefficients, and the estimator pipeline."""

import json
import math

import numpy as np
import pytest

import direct_oracle as oracle
import torneed as tn
from torneed.estimation import as_sample_array
from torneed.harmonics import TWO_PI


@pytest.fixture(scope="module")
def frame():
    return tn.build_frame(2.0, 1, 3)


# ---------------------------------------------------------------- truncation level


def test_truncation_level_frozen_values():
    # floor(log_B(n / ln n) / (d + 2|m|)) at d=1, |m|=1, B=2
    for n, expect in ((500, 2), (2000, 2), (8000, 3), (32000, 3)):
        assert tn.truncation_level(n, 1, 1, 2.0) == expect
    assert tn.truncation_level(3, 1, 1, 2.0) == 0
    assert tn.truncation_level(8000, 1, 0, 2.0) == 9  # denominator d only
    assert tn.truncation_level(8000, 2, 1, 2.0) == 2


def test_truncation_level_validation():
    with pytest.raises(ValueError):
        tn.truncation_level(2, 1, 1, 2.0)
    with pytest.raises(ValueError):
        tn.truncation_level(100, 1, -1, 2.0)
    with pytest.raises(ValueError):
        tn.truncation_level(100, 1, 1, 1.0)


# ---------------------------------------------------------------- threshold rules


def test_threshold_rule_validation():
    with pytest.raises(ValueError, match="kind"):
        tn.ThresholdRule("median", 1.0, (1,), 100, 2.0)
    with pytest.raises(ValueError, match="kappa"):
        tn.ThresholdRule("hard", -0.5, (1,), 100, 2.0)
    with pytest.raises(ValueError):
        tn.ThresholdRule("hard", 1.0, (1,), 2, 2.0)
    with pytest.raises(ValueError):
        tn.ThresholdRule("hard", 1.0, (1,), 100, 1.0)
    rule = tn.ThresholdRule("soft", 1.0, np.array([2]), 100, 2.0)
    assert rule.m == (2,) and isinstance(rule.m[0], int)


def test_threshold_value_formula():
    # tau_j = kappa * B^(j|m|) * sqrt(ln n / n)
    rule = tn.ThresholdRule("hard", 2.0, (1,), 100, 2.0)
    base = 2.0 * math.sqrt(math.log(100) / 100)
    assert tn.threshold_value(rule, 0) == pytest.approx(base, rel=1e-15)
    assert tn.threshold_value(rule, 2) == pytest.approx(4 * base, rel=1e-15)
    second = tn.ThresholdRule("hard", 1.0, (2,), 100, 3.0)
    assert tn.threshold_value(second, 1) == pytest.approx(
        9.0 * math.sqrt(math.log(100) / 100), rel=1e-15
    )
    with pytest.raises(ValueError):
        tn.threshold_value(rule, -1)


def test_threshold_value_literal_schedule():
    # scale_with_n=False drops the sqrt(ln n / n) factor entirely
    rule = tn.ThresholdRule("hard", 2.0, (1,), 100, 2.0, scale_with_n=False)
    assert tn.threshold_value(rule, 0) == 2.0
    assert tn.threshold_value(rule, 3) == 16.0


def test_calibrated_rule_constant():
    # kappa = kappa0 * M * I_|m| with I_q the q-th window moment
    window = tn.build_window(2.0)
    sup = 1.0 / TWO_PI
    rule = tn.calibrated_rule("hard", 5.0, sup, window, (1,), 8000, 2.0)
    assert window.moment(1) == pytest.approx(0.8585731533997301, rel=1e-12)
    assert rule.kappa == pytest.approx(5.0 * sup * 0.8585731533997301, rel=1e-12)
    assert rule.scale_with_n is True
    lit = tn.calibrated_rule("soft", 1.0, sup, window, (1,), 8000, 2.0, drop_sample_factor=True)
    assert lit.scale_with_n is False
    assert lit.kind == "soft"


def test_apply_threshold_hard_keeps_boundary():
    u = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    out = tn.apply_threshold("hard", u, 1.0)
    np.testing.assert_array_equal(out, [-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0])


def test_apply_threshold_soft_shrinks():
    u = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    out = tn.apply_threshold("soft", u, 1.0)
    np.testing.assert_allclose(out, [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_apply_threshold_scalar_and_errors():
    got = tn.apply_threshold("hard", 0.3, 0.5)
    assert got == 0.0 and isinstance(got, float)
    assert tn.apply_threshold("soft", -0.8, 0.5) == pytest.approx(-0.3)
    with pytest.raises(ValueError):
        tn.apply_threshold("hard", u=1.0, a=-0.1)
    with pytest.raises(ValueError):
        tn.apply_threshold("trim", 1.0, 0.1)


# ---------------------------------------------------------------- sample coercion


def test_as_sample_array_wraps_and_validates():
    pts = as_sample_array([-0.5, TWO_PI + 0.25], 1)
    np.testing.assert_allclose(pts.ravel(), [TWO_PI - 0.5, 0.25])
    with pytest.raises(ValueError, match="empty"):
        as_sample_array(np.empty((0, 1)), 1)
    with pytest.raises(ValueError, match="finite"):
        as_sample_array([0.1, np.nan], 1)


# ---------------------------------------------------------------- empirical coefficients


def test_empirical_single_point_matches_needlet_values(frame):
    # with a single observation at theta0 the estimate is exactly
    # (-1)^|m| psi^(m)_{j,k}(theta0): a sign-sensitive closed form
    theta0 = 1.234
    emp1 = tn.empirical_coefficients(frame, [theta0], m=(1,))
    emp0 = tn.empirical_coefficients(frame, [theta0], m=(0,))
    for j in range(frame.jmax + 1):
        for k in (0, frame.level(j).cubature.K - 1, frame.level(j).cubature.K // 2):
            psi1 = tn.needlet_eval(frame, j, k, theta0, m=(1,))
            psi0 = tn.needlet_eval(frame, j, k, theta0)
            assert emp1.levels[j][k] == pytest.approx(-psi1, abs=1e-12)
            assert emp0.levels[j][k] == pytest.approx(psi0, abs=1e-12)


def test_empirical_two_points_average(frame):
    a, b = 0.7, 4.2
    emp = tn.empirical_coefficients(frame, [a, b], m=(1,))
    for j in (0, 2):
        psi_a = np.array([tn.needlet_eval(frame, j, k, a, m=(1,)) for k in range(emp.levels[j].size)])
        psi_b = np.array([tn.needlet_eval(frame, j, k, b, m=(1,)) for k in range(emp.levels[j].size)])
        np.testing.assert_allclose(emp.levels[j], -(psi_a + psi_b) / 2, atol=1e-12)


def test_empirical_fft_matches_direct(frame):
    rng = np.random.default_rng(5)
    X = rng.uniform(0, TWO_PI, (300, 1))
    direct = oracle.empirical_coefficients(frame, X, frame.jmax, m=(1,))
    via_fft = tn.empirical_coefficients(frame, X, m=(1,))
    for lhs, rhs in zip(direct.levels, via_fft.levels):
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_empirical_provenance_and_jmax(frame):
    emp = tn.empirical_coefficients(frame, [1.0, 2.0, 3.0], jmax=1)
    assert emp.provenance == "empirical"
    assert len(emp.levels) == 2
    with pytest.raises(ValueError, match="jmax"):
        tn.empirical_coefficients(frame, [1.0], jmax=frame.jmax + 1)


def test_empirical_chunked_sum_is_order_stable(frame):
    # identical input must give bitwise identical output regardless of how
    # the caller batches it; the internal reduction has a fixed chunk order
    rng = np.random.default_rng(11)
    X = rng.uniform(0, TWO_PI, (1000, 1))
    one = tn.empirical_coefficients(frame, X, m=(1,))
    two = tn.empirical_coefficients(frame, X.copy(), m=(1,))
    for lhs, rhs in zip(one.levels, two.levels):
        np.testing.assert_array_equal(lhs, rhs)


# ---------------------------------------------------------------- estimator pipeline


def test_estimate_zero_kappa_keeps_everything(frame):
    rng = np.random.default_rng(17)
    X = rng.uniform(0, TWO_PI, (300, 1))
    rule = tn.ThresholdRule("hard", 0.0, (1,), 300, 2.0)
    est = tn.estimate(frame, X, (1,), rule, J_override=3)
    assert est.J == 3
    assert est.taus == (0.0, 0.0, 0.0)
    for raw, kept in zip(est.raw.levels, est.coeffs.levels):
        np.testing.assert_array_equal(raw, kept)
    counts = est.surviving_counts()
    assert [c[1] for c in counts] == [c[2] for c in counts]
    assert all(c[3] == 1.0 for c in counts)


def test_estimate_huge_kappa_kills_everything(frame):
    rng = np.random.default_rng(18)
    X = rng.uniform(0, TWO_PI, (300, 1))
    rule = tn.ThresholdRule("hard", 1e6, (1,), 300, 2.0)
    est = tn.estimate(frame, X, (1,), rule, J_override=3)
    assert all(alive == 0 for _, alive, _, _ in est.surviving_counts())
    grid = tn.uniform_grid(64, 1)
    np.testing.assert_array_equal(est.evaluate(grid), 0.0)


def test_estimate_soft_rule_shrinks_survivors(frame):
    rng = np.random.default_rng(19)
    X = rng.uniform(0, TWO_PI, (300, 1))
    rule = tn.ThresholdRule("soft", 0.05, (1,), 300, 2.0)
    est = tn.estimate(frame, X, (1,), rule, J_override=3)
    for j, (raw, kept) in enumerate(zip(est.raw.levels, est.coeffs.levels)):
        tau = est.taus[j]
        alive = kept != 0
        np.testing.assert_allclose(np.abs(kept[alive]), np.abs(raw[alive]) - tau, atol=1e-15)
        assert np.all(np.sign(kept[alive]) == np.sign(raw[alive]))


def test_estimate_auto_truncation_level(frame):
    rng = np.random.default_rng(20)
    X = rng.uniform(0, TWO_PI, (500, 1))
    rule = tn.ThresholdRule("hard", 1.0, (1,), 500, 2.0)
    est = tn.estimate(frame, X, (1,), rule)
    assert est.J == 2  # truncation_level(500, 1, 1, 2)
    assert len(est.coeffs.levels) == 2


def test_estimate_rejects_mismatched_rule(frame):
    X = [0.1, 0.2, 0.3, 0.4]
    wrong_m = tn.ThresholdRule("hard", 1.0, (2,), 4, 2.0)
    with pytest.raises(ValueError, match="rule is for m="):
        tn.estimate(frame, X, (1,), wrong_m)
    wrong_n = tn.ThresholdRule("hard", 1.0, (1,), 99, 2.0)
    with pytest.raises(ValueError, match="rule was built for n="):
        tn.estimate(frame, X, (1,), wrong_n)


def test_estimate_rejects_j_beyond_frame(frame):
    X = [0.1, 0.2, 0.3, 0.4]
    rule = tn.ThresholdRule("hard", 1.0, (1,), 4, 2.0)
    with pytest.raises(ValueError, match="jmax >= 5"):
        tn.estimate(frame, X, (1,), rule, J_override=5)


def test_estimate_tiny_sample_gives_empty_estimator(frame):
    # n=3 puts the truncation level at 0: nothing is estimated
    rule = tn.ThresholdRule("hard", 1.0, (1,), 3, 2.0)
    est = tn.estimate(frame, [0.1, 0.2, 0.3], (1,), rule)
    assert est.J == 0
    assert est.coeffs.levels == [] and est.taus == ()
    assert est.surviving_counts() == []
    grid = tn.uniform_grid(16, 1)
    np.testing.assert_array_equal(est.evaluate(grid), 0.0)


def test_estimator_metadata(frame):
    rule = tn.ThresholdRule("hard", 0.25, (1,), 500, 2.0)
    rng = np.random.default_rng(21)
    est = tn.estimate(frame, rng.uniform(0, TWO_PI, (500, 1)), (1,), rule)
    assert est.metadata() == {
        "B": 2.0,
        "d": 1,
        "m": [1],
        "n": 500,
        "kappa": 0.25,
        "rule": "hard",
        "J": 2,
    }


def test_estimator_csv_and_meta_round_trip(frame, tmp_path):
    rng = np.random.default_rng(22)
    rule = tn.ThresholdRule("soft", 0.1, (1,), 400, 2.0)
    est = tn.estimate(frame, rng.uniform(0, TWO_PI, (400, 1)), (1,), rule, J_override=3)

    csv_path = tmp_path / "est_coefficients.csv"
    tn.write_estimator_csv(est, csv_path)
    raw_levels, kept_levels, taus = tn.read_estimator_csv(csv_path)
    assert len(raw_levels) == est.J
    for j in range(est.J):
        np.testing.assert_array_equal(raw_levels[j], est.raw.levels[j])
        np.testing.assert_array_equal(kept_levels[j], est.coeffs.levels[j])
        assert taus[j] == est.taus[j]

    meta_path = tmp_path / "est_meta.json"
    tn.write_estimator_meta(est, meta_path)
    meta = json.loads(meta_path.read_text())
    assert meta == est.metadata()

    with open(csv_path) as fh:
        assert fh.readline().strip() == "j,k,raw,thresholded,tau"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,1,1,0.5\n0,2,3,3,0.5\n", "level 0 is missing k=1"),
        ("0,0,1,1,0.5\n1,0,2,0,0.7\n1,0,2,0,0.7\n", "level 1 repeats k=0"),
    ],
)
def test_read_estimator_csv_rejects_gaps_and_duplicates(tmp_path, rows, message):
    path = tmp_path / "holes.csv"
    path.write_text("j,k,raw,thresholded,tau\n" + rows)
    with pytest.raises(ValueError, match=message):
        tn.read_estimator_csv(path)


def test_read_estimator_csv_sorts_rows_by_k(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("j,k,raw,thresholded,tau\n0,1,2,0,0.5\n1,0,7,7,0.9\n0,0,1,1,0.5\n")
    raw_levels, kept_levels, taus = tn.read_estimator_csv(path)
    np.testing.assert_array_equal(raw_levels[0], [1.0, 2.0])
    np.testing.assert_array_equal(kept_levels[0], [1.0, 0.0])
    np.testing.assert_array_equal(raw_levels[1], [7.0])
    assert taus == [0.5, 0.9]


def test_read_estimator_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        tn.read_estimator_csv(path)


# ---------------------------------------------------------------- oracle bandwidth


def test_diagnostic_bandwidth_hand_values():
    assert tn.diagnostic_bandwidth(2.0, 1, 1, 2.0, 8000, "regular") == 1
    assert tn.diagnostic_bandwidth(0.5, 0, 1, 2.0, 8000, "regular") == 4
    assert tn.diagnostic_bandwidth(2.0, 1, 1, 2.0, 8000, "sparse", r=2) == 1


def test_diagnostic_bandwidth_validation():
    with pytest.raises(ValueError, match="positive"):
        tn.diagnostic_bandwidth(0.0, 1, 1, 2.0, 8000, "regular")
    with pytest.raises(ValueError, match="r"):
        tn.diagnostic_bandwidth(2.0, 1, 1, 2.0, 8000, "sparse")
    with pytest.raises(ValueError, match="s > d/r"):
        tn.diagnostic_bandwidth(0.4, 1, 1, 2.0, 8000, "sparse", r=2)
    with pytest.raises(ValueError, match="zone"):
        tn.diagnostic_bandwidth(2.0, 1, 1, 2.0, 8000, "oracle")
