"""Test thresholding rules, empirical coefficients, and the estimator pipeline."""

import ast
import importlib
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import direct_oracle as oracle
import torneed as tn
from torneed.estimation import (
    RefusedRow,
    _ReplicationPlan,
    threshold_value,
    thresholded_estimator,
)
from torneed.frame import (
    IMAG_RESIDUE_TOL,
    _axis_phases,
    _grid_axis,
    box_half_width,
    min_grid_size,
    sample_spectrum,
)
from torneed.harmonics import TWO_PI


@pytest.fixture(scope="module")
def frame():
    return tn.NeedletFrame(2.0, 1, 3)


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


@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize(
    "kappa, B, match",
    [
        (math.nan, 2.0, "kappa must be nonnegative"),
        (1.0, math.nan, "scale B must exceed 1"),
        (math.inf, 2.0, "kappa must be nonnegative and finite"),
    ],
)
def test_threshold_rule_rejects_nan(kind, kappa, B, match):
    # NaN fails every comparison: a NaN kappa would keep nothing (hard) or
    # poison every coefficient (soft) if the checks were spelled as kappa < 0;
    # an infinite kappa kills every coefficient at every level
    with pytest.raises(ValueError, match=match):
        tn.ThresholdRule(kind, kappa, (1,), 500, B)


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
    window = tn.NeedletWindow(2.0)
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


def test_apply_threshold_broadcasts_a_column_of_thresholds():
    # an (R, 1) column against a (K,) level is R scalar-threshold calls, bit
    # for bit: tau = 0, an exact tie |u| = tau and a tau above every |u|
    u = np.random.default_rng(3).normal(size=33)
    taus = np.array([0.0, 0.4, abs(u[5]), 10.0])
    for kind in ("hard", "soft"):
        stack = tn.apply_threshold(kind, u, taus[:, None])
        assert stack.shape == (4, 33)
        for i, tau in enumerate(taus):
            assert stack[i].tobytes() == tn.apply_threshold(kind, u, float(tau)).tobytes()
        assert stack[2, 5] == (u[5] if kind == "hard" else 0.0)  # the tie is kept, or shrunk to 0
        assert not stack[3].any()
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            tn.apply_threshold(kind, u, np.array([[0.1], [-1e-300], [0.2]]))


# ---------------------------------------------------------------- estimator families

FAMILY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
_FAMILY_FRAMES = {1: tn.NeedletFrame(2.0, 1, 3), 2: tn.NeedletFrame(2.0, 2, 2)}


@st.composite
def family_case(draw):
    """Raw coefficients, 1 to 6 rules of mixed kinds and a grid size.

    Each raw level is dead, tiny or O(1); kappa 0 gives tau = 0 and kappa
    1e6 a tau above every |u| (an all-dead row); every other rule gets an
    exact tie |u| = tau planted at one of its levels.
    """
    d = draw(st.sampled_from((1, 2)))
    frame = _FAMILY_FRAMES[d]
    J = draw(st.integers(1, frame.jmax + 1))
    m = draw(st.sampled_from(((0,) * d, (1,) + (0,) * (d - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = [
        draw(st.sampled_from((0.0, 1e-3, 1.0))) * rng.normal(size=frame.cubature(j).K)
        for j in range(J)
    ]
    R = draw(st.integers(1, 6))
    rules = [
        tn.ThresholdRule(
            draw(st.sampled_from(("hard", "soft"))),
            draw(st.sampled_from((0.0, 0.05, 0.5, 1e6))),
            m,
            500,
            2.0,
        )
        for _ in range(R)
    ]
    for rule in rules:
        if 0.0 < rule.kappa < 1e6:
            j = int(rng.integers(J))
            tie = rng.choice((-1.0, 1.0)) * threshold_value(rule, j)
            levels[j][rng.integers(levels[j].size)] = tie
    npts = draw(st.integers(1, min_grid_size(2.0, J) + 2))
    return frame, tn.CoefficientArray(m, levels), rules, npts


@FAMILY
@given(family_case())
def test_family_equals_its_members(case):
    frame, raw, rules, npts = case
    family = thresholded_estimator(frame, raw, rules)
    alive = family.survivors()
    assert alive.shape == family.taus.shape == (len(rules), raw.njlevels)
    for i, rule in enumerate(rules):
        one = thresholded_estimator(frame, raw, [rule])
        for j, lv in enumerate(raw.levels):
            tau = threshold_value(rule, j)
            assert family.taus[i, j] == one.taus[0, j] == tau
            kept = family.coeffs.levels[j][i]
            assert kept.tobytes() == one.coeffs.levels[j][0].tobytes()
            assert kept.tobytes() == tn.apply_threshold(rule.kind, lv, tau).tobytes()
        assert alive[i].tolist() == one.survivors()[0].tolist()
        single = thresholded_estimator(frame, raw, rule)
        assert single.rule == rule and single.taus.tolist() == family.taus[i].tolist()
        assert [a for _, a, _, _ in single.surviving_counts()] == alive[i].tolist()
    off_grid = np.random.default_rng(npts).uniform(-1.0, 7.0, (9, frame.d))
    for pts in (tn.uniform_grid(npts, frame.d), off_grid):
        stacked = tn.synthesize(frame, family.coeffs, pts)
        assert stacked.shape == (len(rules), pts.shape[0])
        for i in range(len(rules)):
            row = tn.synthesize(frame, thresholded_estimator(frame, raw, rules[i]).coeffs, pts)
            if not alive[i].any():
                assert not stacked[i].any() and not row.any()
                continue
            scale = float(np.max(np.abs(row)))
            assert float(np.max(np.abs(stacked[i] - row))) <= 1e-12 * scale


def test_a_plan_built_for_another_run_is_refused(frame):
    refused = "the replication plan was built for another frame, J, m or rules"
    X = np.random.default_rng(4).uniform(0.0, TWO_PI, 200)
    rules = (tn.ThresholdRule("hard", 0.5, (1,), 200, 2.0),)
    raw = tn.empirical_coefficients(frame, X, jmax=2, m=(1,))
    with pytest.raises(ValueError, match=refused):  # J: two levels, not three
        tn.empirical_coefficients(frame, X, jmax=2, m=(1,), plan=_ReplicationPlan(frame, (1,), 2))
    order_two = _ReplicationPlan(frame, (2,), 3)
    with pytest.raises(ValueError, match=refused):  # m: order 2, not 1
        tn.analyze(frame, tn.wrapped_normal(1.0), (1,), jmax=2, plan=order_two)
    other_rules = _ReplicationPlan(frame, (1,), 3, (tn.ThresholdRule("soft", 0.5, (1,), 200, 2.0),))
    with pytest.raises(ValueError, match=refused):  # rules: soft, not hard
        thresholded_estimator(frame, raw, rules, plan=other_rules)
    other_frame = _ReplicationPlan(tn.NeedletFrame(2.0, 1, 3), (1,), 3, rules)
    est = thresholded_estimator(frame, raw, rules, plan=_ReplicationPlan(frame, (1,), 3, rules))
    with pytest.raises(ValueError, match=refused):  # frame: an equal one, but another object
        tn.estimation.synthesis_box(frame, est.coeffs, plan=other_frame)


def test_stacked_replications_equal_their_estimators_alone(monkeypatch):
    # C = 3 replications of R = 2 rules in one (3, 2, K) estimator: the
    # thresholded rows, survivors and values of each replication are those of
    # its own estimator; the stack is evaluated in one call on the band of its
    # top live level (2), replication 0 (top level 1) on that band zero-padded
    frame = tn.NeedletFrame(2.0, 1, 2)
    rng = np.random.default_rng(3)
    rules = [tn.ThresholdRule(kind, 0.1, (1,), 500, 2.0) for kind in ("hard", "soft")]
    plan = _ReplicationPlan(frame, (1,), 3, rules)
    grid = tn.uniform_grid(33, 1)
    raws = rng.normal(size=(3, plan.size))
    raws[0, plan.slices[2]] = 0.0  # replication 0 stops at level 1
    raws[2] = 0.0  # replication 2 keeps nothing
    def estimator(flat):
        raw = tn.CoefficientArray.from_flat((1,), flat, plan.slices)
        return thresholded_estimator(frame, raw, rules, plan=plan)

    stacked = estimator(raws)
    widths = []
    original = tn.frame._family_values
    monkeypatch.setattr(
        tn.estimation,
        "_family_values",
        lambda box, *args: widths.append(box.shape[0]) or original(box, *args),
    )
    values = stacked.evaluate(grid)
    assert widths == [2 * box_half_width(2.0, 2) + 1]
    assert values.shape == (3, 2, 33) and stacked.survivors().shape == (3, 2, 3)
    for c in range(3):
        alone = estimator(raws[c])
        assert stacked.coeffs.flat[c].tobytes() == alone.coeffs.flat.tobytes()
        assert stacked.survivors()[c].tolist() == alone.survivors().tolist()
        # stacked (3, 2, 33) values against one replication's (2, 33)
        assert values[c].tobytes() == alone.evaluate(grid).tobytes(), c
    assert not values[2].any()


def test_dead_top_levels_cost_nothing():
    # levels 0-1 live of 0-10 (L = 2047): the grid values are the bits of the
    # two-level synthesis, and the phase table is the 7 rows of the live
    # band, not the (4095, 4095) table of the whole box (256 MiB)
    rng = np.random.default_rng(11)
    big, small = tn.NeedletFrame(2.0, 1, 10), tn.NeedletFrame(2.0, 1, 1)
    live = [rng.normal(size=small.cubature(j).K) for j in range(2)]
    dead = [np.zeros(big.cubature(j).K) for j in range(2, 11)]
    grid = tn.uniform_grid(4095, 1)
    tracemalloc.start()
    try:
        values = tn.synthesize(big, tn.CoefficientArray((0,), live + dead), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    two_levels = tn.synthesize(small, tn.CoefficientArray((0,), live), grid)
    assert values.tobytes() == two_levels.tobytes()
    assert peak < 8 * 2**20


def test_family_of_no_levels_evaluates_every_row():
    frame = tn.NeedletFrame(2.0, 1, 0)
    rules = [tn.ThresholdRule(kind, 1.0, (0,), 100, 2.0) for kind in ("hard", "soft", "hard")]
    family = thresholded_estimator(frame, tn.CoefficientArray((0,), []), rules)
    assert family.survivors().shape == (3, 0)
    grid = tn.uniform_grid(5, 1)
    np.testing.assert_array_equal(family.evaluate(grid), np.full((3, 5), TWO_PI**-1))


def test_one_estimator_class_and_fresh_rows_without_levels():
    classes = [
        cls
        for _, cls in inspect.getmembers(tn.estimation, inspect.isclass)
        if cls.__module__ == "torneed.estimation" and hasattr(cls, "evaluate")
    ]
    assert classes == [tn.DerivativeEstimator]
    # J = 0 and m != 0: no level shows the rows and no mean is added, yet
    # every row gets its own writeable zeros
    frame = tn.NeedletFrame(2.0, 2, 0)
    rules = [tn.ThresholdRule(kind, 1.0, (1, 0), 100, 2.0) for kind in ("hard", "soft")]
    est = thresholded_estimator(frame, tn.CoefficientArray((1, 0), []), rules)
    values = est.evaluate(tn.uniform_grid(3, 2))
    assert values.shape == (2, 9) and values.flags.writeable and values.flags.owndata
    values[0] = 1.0
    assert not values[1].any()


# ---------------------------------------------------------------- replication plan


@st.composite
def plan_case(draw):
    """A frame, m, J (0 included), 1 to 6 rules of mixed kinds, a grid size and sample seeds.

    kappa 0 gives tau = 0 and kappa 1e6 a tau above every |u| (an all-dead
    row); ties |u| = tau and dead levels are planted by the test itself,
    after the coefficients are drawn.
    """
    d = draw(st.sampled_from((1, 2)))
    frame = _FAMILY_FRAMES[d]
    J = draw(st.sampled_from(range(frame.jmax + 1, -1, -1)))  # every level count, 0 too
    m = tuple(draw(st.lists(st.integers(0, 2), min_size=d, max_size=d)))
    rules = [
        tn.ThresholdRule(
            draw(st.sampled_from(("hard", "soft"))),
            draw(st.sampled_from((0.0, 0.05, 0.5, 1e6))),
            m,
            300,
            2.0,
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    npts = draw(st.integers(1, min_grid_size(2.0, J) + 2))
    return frame, m, J, rules, npts, draw(st.integers(0, 2**32 - 1))


def _plant_ties_and_dead_levels(raw, rules, rng):
    """Zero a random level (of two or more) and plant |u| = tau of each rule in one level."""
    if raw.njlevels > 1:
        raw.levels[int(rng.integers(raw.njlevels))][:] = 0.0
    for rule in rules:
        if raw.njlevels and 0.0 < rule.kappa < 1e6:
            j = int(rng.integers(raw.njlevels))
            tie = rng.choice((-1.0, 1.0)) * threshold_value(rule, j)
            raw.levels[j][rng.integers(raw.levels[j].size)] = tie


@FAMILY
@given(plan_case())
def test_the_plan_equals_the_per_level_path(case):
    frame, m, J, rules, npts, seed = case
    rng = np.random.default_rng(seed)
    grid = tn.uniform_grid(npts, frame.d)
    off_grid = rng.uniform(-1.0, 7.0, (9, frame.d))
    # a synthesis whose top live level is lower builds the table of that
    # level's band: the bits of the same rows of the full-width table
    L = box_half_width(2.0, J - 1)
    full = _axis_phases(_grid_axis(npts), L)
    for half in (box_half_width(2.0, j) for j in range(J)):
        rows = full[L - half : L + half + 1]
        assert rows.tobytes() == _axis_phases(_grid_axis(npts), half).tobytes()
    for pts in (grid, off_grid):
        plan = _ReplicationPlan(frame, m, J, rules)
        for _ in range(2):  # one plan serves every sample of a run
            X = rng.uniform(0.0, TWO_PI, (300, frame.d))
            raw = tn.empirical_coefficients(frame, X, J - 1, m, plan=plan)
            fresh = tn.empirical_coefficients(frame, X, J - 1, m)
            assert raw.flat.tobytes() == fresh.flat.tobytes()
            _plant_ties_and_dead_levels(raw, rules, rng)
            fresh.flat[:] = raw.flat
            est = thresholded_estimator(frame, raw, rules, plan=plan)
            alive = est.survivors()
            assert alive.shape == est.taus.shape == (len(rules), J)
            for j, lv in enumerate(raw.levels):
                assert np.shares_memory(lv, raw.flat)
                assert np.shares_memory(est.coeffs.levels[j], est.coeffs.flat)
                for i, rule in enumerate(rules):
                    tau = threshold_value(rule, j)
                    kept = tn.apply_threshold(rule.kind, lv, tau)
                    assert est.taus[i, j] == tau
                    assert est.coeffs.levels[j][i].tobytes() == kept.tobytes()
                    assert alive[i, j] == np.count_nonzero(kept)
            once = thresholded_estimator(frame, fresh, rules)
            assert once.coeffs.flat.tobytes() == est.coeffs.flat.tobytes()
            values = est.evaluate(pts)
            assert values.tobytes() == once.evaluate(pts).tobytes()


def _plan_arrays(value):
    """Every ndarray a plan holds, through nested tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _plan_arrays(item)]
    return []


def test_the_shared_plan_is_read_only():
    frame = tn.NeedletFrame(2.0, 2, 2)
    rules = [tn.ThresholdRule(kind, 0.5, (1, 0), 300, 2.0) for kind in ("hard", "soft", "hard")]
    plan = _ReplicationPlan(frame, (1, 0), 3, rules)
    arrays = _plan_arrays(tuple(vars(plan).values()))
    assert plan.taus.shape == (3, 3)
    assert len(arrays) > 20 and not any(a.flags.writeable for a in arrays)


_FRAMES = {d: tn.NeedletFrame(2.0, d, jmax) for d, jmax in ((1, 3), (2, 2), (3, 1))}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    J=st.integers(0, 4),
    orders=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    C=st.integers(1, 9),
    position=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_chunk_level_map_gives_each_row_its_bytes_alone(d, J, orders, C, position, seed):
    # a chunk's level map runs once over the stacked sample spectra of C
    # replications; each row must hold the bytes of its replication alone,
    # wherever it sits in the chunk and whatever samples sit beside it
    frame = _FRAMES[d]
    J, m = min(J, frame.jmax + 1), tuple(orders[:d])
    plan = _ReplicationPlan(frame, m, J)
    rng = np.random.default_rng(seed)
    n = 40
    samples = [rng.uniform(-1.0, 7.0, (n, d)) for _ in range(C)]
    # a concentrated sample, whose coefficients are the largest, at a random
    # position among uniform ones
    target = min(position, C - 1)
    samples[target] = rng.normal(3.0, 0.3, (n, d))
    spectra = np.stack([sample_spectrum(X, plan.L) for X in samples])
    chunk = plan.sample_coefficients(spectra, n)
    assert chunk.shape == (C, plan.size)
    for X, row in zip(samples, chunk):
        alone = tn.empirical_coefficients(frame, X, J - 1, m)
        shared = tn.empirical_coefficients(frame, X, J - 1, m, plan=plan)
        assert alone.flat.tobytes() == shared.flat.tobytes() == row.tobytes()


def test_a_refused_row_stays_refused_beside_a_large_chunk_mate():
    # the residue rule is per row: a row whose spectrum breaks S_{-l} = conj(S_l)
    # is refused against its own scale, so a chunk-mate a billion times larger,
    # whose real parts would lift a chunk-wide bound far above the residue,
    # changes nothing
    frame = tn.NeedletFrame(2.0, 1, 2)
    plan = _ReplicationPlan(frame, (1,), 3)
    X = np.random.default_rng(8).uniform(0.0, TWO_PI, (200, 1))
    good = sample_spectrum(X, plan.L)
    bad = good.copy()
    bad[plan.L + 2] += 1e-4j  # S_2 alone: its pixels carry an imaginary residue
    big = 1e9 * good
    scale = np.abs(plan.sample_coefficients(big[None], 200)).max()
    assert IMAG_RESIDUE_TOL * scale > 1e-4  # a bound from the chunk's largest row would pass it
    with pytest.raises(RefusedRow, match="imaginary residue .* in empirical coefficients") as alone:
        plan.sample_coefficients(bad[None], 200)
    assert alone.value.row == 0
    for stack, row in (([big, bad], 1), ([bad, big], 0), ([good, big, bad, big], 2)):
        with pytest.raises(RefusedRow, match="imaginary residue") as refused:
            plan.sample_coefficients(np.stack(stack), 200)
        assert refused.value.row == row
        assert str(refused.value) == str(alone.value)


# ---------------------------------------------------------------- sample coercion


def test_empirical_coefficients_refuse_an_empty_a_nonfinite_or_a_misshapen_sample(frame):
    # as_points refuses another column count; sample_spectrum, the one place
    # that checks a sample's values, refuses an empty sample and a NaN
    with pytest.raises(ValueError, match="sample set is empty"):
        tn.empirical_coefficients(frame, np.empty((0, 1)))
    with pytest.raises(ValueError, match="samples contain non-finite values"):
        tn.empirical_coefficients(frame, [0.1, np.nan])
    with pytest.raises(ValueError, match="expected points with 2 coordinates"):
        tn.empirical_coefficients(tn.NeedletFrame(2.0, 2, 1), np.zeros((4, 3)))


@pytest.mark.parametrize("d", [1, 2])
def test_empirical_coefficients_are_2pi_periodic(d):
    frame = tn.NeedletFrame(2.0, d, 3 if d == 1 else 2)
    X = np.random.default_rng(8 + d).uniform(0, TWO_PI, (2000, d))
    m = (1,) + (0,) * (d - 1)
    base = tn.empirical_coefficients(frame, X, m=m)
    for k in (-3, 1, 5):
        shifted = tn.empirical_coefficients(frame, X + TWO_PI * k, m=m)
        for lv, ref in zip(shifted.levels, base.levels):
            np.testing.assert_allclose(lv, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


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
    assert emp.m == (0,)
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
    assert est.taus.tolist() == [0.0, 0.0, 0.0]
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


def test_rules_for_another_scale_or_order_are_refused(frame):
    # taus are built from the rule's B and m, so a rule for another frame or
    # order would threshold every level but the first at the wrong height
    X = tn.wrapped_normal(1.0).sampler(np.random.default_rng(3), 500)
    other_B = tn.ThresholdRule("hard", 0.5, (1,), 500, 3.0)
    with pytest.raises(ValueError, match=r"rule is for m=\(1,\) and B=3"):
        tn.estimate(frame, X, (1,), other_B, J_override=4)
    raw = tn.empirical_coefficients(frame, X, m=(1,))
    other_m = tn.ThresholdRule("hard", 0.5, (2,), 500, 2.0)
    with pytest.raises(ValueError, match=r"rule is for m=\(2,\)"):
        thresholded_estimator(frame, raw, other_m)
    with pytest.raises(ValueError, match=r"rule is for m=\(1,\) and B=3"):
        thresholded_estimator(frame, raw, [tn.ThresholdRule("hard", 0.5, (1,), 500, 2.0), other_B])


def test_levels_outside_the_frame_are_refused(frame):
    # jmax = -1 asks for no level; below it or above the frame's top is refused
    for fn, arg in ((tn.empirical_coefficients, [0.1, 0.2, 0.3]), (tn.analyze, np.cos)):
        assert fn(frame, arg, jmax=-1).levels == []
        for jmax in (-2, 4):
            with pytest.raises(ValueError, match=rf"jmax {jmax} outside -1\.\.3"):
                fn(frame, arg, jmax=jmax)


def test_estimate_rejects_j_beyond_frame(frame):
    X = [0.1, 0.2, 0.3, 0.4]
    rule = tn.ThresholdRule("hard", 1.0, (1,), 4, 2.0)
    with pytest.raises(ValueError, match="jmax >= 4"):
        tn.estimate(frame, X, (1,), rule, J_override=5)


def test_estimate_needs_a_frame_with_jmax_j_minus_1():
    # J levels are 0..J-1, so jmax = J-1 is the smallest frame that holds them
    X = np.random.default_rng(5).uniform(0, TWO_PI, (500, 1))
    rule = tn.ThresholdRule("hard", 0.5, (1,), 500, 2.0)
    est = tn.estimate(tn.NeedletFrame(2.0, 1, 2), X, (1,), rule, J_override=3)
    assert est.J == 3 and len(est.coeffs.levels) == 3
    roomy = tn.estimate(tn.NeedletFrame(2.0, 1, 5), X, (1,), rule, J_override=3)
    for a, b in zip(est.coeffs.levels, roomy.coeffs.levels):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="jmax >= 2, got 1"):
        tn.estimate(tn.NeedletFrame(2.0, 1, 1), X, (1,), rule, J_override=3)


def _callers(module, names):
    """Qualified names of the innermost functions of module that call any of names."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            call = isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
            if call and child.func.id in names:
                found.add(f"{module.__name__}.{owner}")
            visit(child, owner)

    visit(ast.parse(inspect.getsource(module)), "<module>")
    return found


def test_thresholds_and_the_mean_have_one_home():
    names = ("bench", "cli", "densities", "estimation", "frame", "harmonics")
    modules = [importlib.import_module(f"torneed.{name}") for name in names]
    # the replication plan's builder forms the taus, once per run, and
    # thresholded_estimator applies them
    taus = set().union(*(_callers(mod, {"threshold_value"}) for mod in modules))
    assert taus == {"torneed.estimation.__init__"}
    thresholding = set().union(*(_callers(mod, {"apply_threshold"}) for mod in modules))
    assert thresholding == {"torneed.estimation.thresholded_estimator"}
    assert "taus" not in inspect.getsource(modules[0])
    # the estimator adds the mean, eval-grid adds it, and the bench scorer takes it off the truth
    mean = set().union(*(_callers(mod, {"with_density_mean"}) for mod in modules))
    assert mean == {
        "torneed.estimation.evaluate",
        "torneed.cli._cmd_eval_grid",
        "torneed.bench.__init__",
    }
    assert "TWO_PI ** (-" not in inspect.getsource(modules[0])
    assert not hasattr(tn.wrapped_normal(1.0), "mass")
    # one grid L^p quadrature: the needlet norms and the bench's grid risks
    quadrature = set().union(*(_callers(mod, {"grid_lp_norm"}) for mod in modules))
    assert quadrature == {"torneed.frame.needlet_lp_norm", "torneed.bench._lp_from_values"}
    # one uniform-grid rule: synthesis and the product truth ask the frame's detector
    grids = set().union(*(_callers(mod, {"_uniform_grid_size"}) for mod in modules))
    assert grids == {"torneed.estimation.box_values", "torneed.densities._product"}
    densities = inspect.getsource(modules[2])
    assert "argsort" not in densities and "cumsum" not in densities


def test_estimate_tiny_sample_gives_empty_estimator(frame):
    # n=3 puts the truncation level at 0: nothing is estimated
    rule = tn.ThresholdRule("hard", 1.0, (1,), 3, 2.0)
    est = tn.estimate(frame, [0.1, 0.2, 0.3], (1,), rule)
    assert est.J == 0
    assert est.coeffs.levels == [] and est.taus.tolist() == []
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
        ("1,0,5,5,0.9\n0,0,1,1,0.5\n0,2,3,3,0.5\n", "level 0 is missing k=1"),
        ("0,0,1,1,0.5\n1,0,5,5,0.9\n1,1,4,4,0.9\n1,1,6,6,0.9\n", "level 1 repeats k=1"),
        ("0,0,1,1,0.5\n2,0,5,5,0.9\n", "level 1 has no rows"),
        ("0,-1,1,1,0.5\n0,0,5,5,0.5\n", "level 0 has negative k=-1"),
        ("0,0,1,1,0.5\n-1,0,5,5,0.5\n", "negative level j=-1"),
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
