"""Test seed derivation, config validation, risk metrics, and the benchmark loop."""

import csv
import dataclasses
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torneed as tn
from torneed.bench import ConfigError, RiskReport
from torneed.cli import main


def base_config(**over):
    data = {
        "density": "wrapped_normal(1.0)",
        "d": 1,
        "B": 2,
        "m": [1],
        "n": 500,
        "replications": 3,
        "kappa0": [1.0],
        "rules": ["hard"],
        "J": 3,
        "grid": 65,
        "p": [2],
        "seed": 12345,
        "risk_method": "grid-quadrature",
        "literal_paper_kappa": False,
    }
    data.update(over)
    return data


# ---------------------------------------------------------------- seed stream


def test_child_seed_splitmix64_reference_values():
    # SplitMix64 outputs for seed 0: published reference sequence
    assert tn.child_seed(0, 0) == 16294208416658607535
    assert tn.child_seed(0, 1) == 7960286522194355700
    assert tn.child_seed(0, 2) == 487617019471545679


def test_child_seed_range_and_distinctness():
    seeds = [tn.child_seed(202406, i) for i in range(64)]
    assert all(0 <= s < 2**64 for s in seeds)
    assert len(set(seeds)) == 64
    assert tn.child_seed(1, 0) != tn.child_seed(2, 0)


# ---------------------------------------------------------------- config


def test_config_happy_path_and_types():
    cfg = tn.config_from_dict(base_config())
    assert cfg.m == (1,)
    assert cfg.kappa0 == (1.0,)
    assert cfg.rules == ("hard",)
    assert cfg.p == (2.0,)
    assert cfg.B == 2.0 and isinstance(cfg.B, float)
    assert cfg.resolved_J() == 3


def test_config_reports_all_violations_at_once():
    data = base_config(density="", d=0, bogus=1)
    del data["B"]
    with pytest.raises(ConfigError) as err:
        tn.config_from_dict(data)
    msg = str(err.value)
    assert "unknown key 'bogus'" in msg
    assert "density must be a nonempty name" in msg
    assert "d must be a positive integer" in msg
    assert "missing key 'B'" in msg


def test_config_rejects_repeated_list_entries():
    # rows and aggregates are keyed by (rule, kappa0, p): a repeat would pool
    # copies of one estimator as independent draws; 1 and 1.0 are one value
    data = base_config(
        kappa0=[1, 2.5, 1.0], rules=["hard", "soft", "hard"], p=[2, "inf", 2.0, "Infinity"]
    )
    with pytest.raises(ConfigError) as err:
        tn.config_from_dict(data)
    msg = str(err.value)
    assert "kappa0 lists 1.0 more than once" in msg
    assert "rules lists 'hard' more than once" in msg
    assert "p lists 2.0 more than once" in msg
    assert "p lists inf more than once" in msg
    assert "soft" not in msg and "2.5" not in msg
    tn.config_from_dict(base_config(kappa0=[1, 2.5], rules=["hard", "soft"], p=[2, "inf"]))


def test_config_m_integer_shorthand():
    cfg = tn.config_from_dict(base_config(m=1))
    assert cfg.m == (1,)
    with pytest.raises(ConfigError, match="m must have d=1 entries"):
        tn.config_from_dict(base_config(m=[1, 0]))


def test_config_p_accepts_inf():
    cfg = tn.config_from_dict(base_config(p=[2, "inf"]))
    assert cfg.p == (2.0, math.inf)
    assert cfg.to_dict()["p"] == [2.0, "inf"]
    with pytest.raises(ConfigError, match="exponents"):
        tn.config_from_dict(base_config(p=[0.5]))


def test_config_proxy_requires_p2():
    with pytest.raises(ConfigError, match="p = 2 only"):
        tn.config_from_dict(base_config(risk_method="coefficient-proxy", p=[2, "inf"]))
    cfg = tn.config_from_dict(base_config(risk_method="coefficient-proxy"))
    assert cfg.risk_method == "coefficient-proxy"


def test_config_both_requires_p2(tmp_path, capsys):
    # the proxy half of "both" is a p = 2 risk: without 2 in p it would vanish
    with pytest.raises(ConfigError, match='"both" needs 2 in p'):
        tn.config_from_dict(base_config(risk_method="both", p=[1, "inf"]))
    assert tn.config_from_dict(base_config(risk_method="both", p=[1, 2])).p == (1.0, 2.0)
    path = tmp_path / "both.json"
    path.write_text(json.dumps(base_config(risk_method="both", p=[1, "inf"])))
    out = tmp_path / "out"
    assert main(["bench", str(path), "--out", str(out)]) == 2
    assert "needs 2 in p" in capsys.readouterr().err
    assert not out.exists()


def test_config_grid_must_resolve_band():
    # J=3 levels at B=2 live on |l| <= 7: 2*ceil(2^3) - 1 = 15 points resolve them
    tn.config_from_dict(base_config(grid=17))
    with pytest.raises(ConfigError, match="grid must be at least 15"):
        tn.config_from_dict(base_config(grid=13))


def test_config_auto_truncation():
    cfg = tn.config_from_dict(base_config(J="auto"))
    assert cfg.J == "auto"
    assert cfg.resolved_J() == 2  # truncation_level(500, 1, 1, 2)


def test_config_overflowing_level_is_config_error(tmp_path, capsys):
    # B**(J+1) leaves float range: a validation error, not an OverflowError
    with pytest.raises(ConfigError, match="J=5000"):
        tn.config_from_dict(base_config(J=5000))
    with pytest.raises(ConfigError, match="J=auto with B=2 overflows"):
        tn.config_from_dict(base_config(n=10**400, J="auto"))
    config = Path(__file__).resolve().parent.parent / "configs" / "paper_table3.json"
    data = json.loads(config.read_text())
    data["J"] = 5000
    path = tmp_path / "huge_j.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["bench", str(path), "--out", str(out)]) == 2
    assert "J=5000" in capsys.readouterr().err
    assert not out.exists()


def test_config_lists_every_size_violation_with_the_others():
    # J = "auto" at B = 1.0000001 resolves to 14 625 685 levels: refused
    # before any frame is built, next to the unrelated errors of the config
    wide = base_config(B=1.0000001, J="auto", grid=10**8 + 1, replications=0)
    with pytest.raises(ConfigError) as err:
        tn.config_from_dict(wide)
    msg = str(err.value)
    assert "replications must be at least 1" in msg
    assert "14625685 levels exceed the cap 4096" in msg
    assert "evaluation grid of 100000001^1 points exceeds the cap" in msg
    assert "grid must be at least" not in msg


def test_config_lists_an_overflowing_derivative_order_with_the_others(tmp_path, capsys):
    # 2**(2*1000) and 7**1000 leave float range: the order is refused with the
    # other problems of the config, and bench exits 2 without a traceback
    with pytest.raises(ConfigError) as err:
        tn.config_from_dict(base_config(m=[1000], J=3, replications=0))
    msg = str(err.value)
    assert "derivative order |m|=1000 with B=2 and J=3 overflows a float" in msg
    assert "replications must be at least 1" in msg
    tn.config_from_dict(base_config(m=[1000], J="auto"))  # truncation_level gives J = 0
    path = tmp_path / "huge_m.json"
    path.write_text(json.dumps(base_config(m=[1000], J=3)))
    out = tmp_path / "out"
    assert main(["bench", str(path), "--out", str(out)]) == 2
    assert "derivative order |m|=1000" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_analysis_grid_above_cap(tmp_path, capsys):
    # the coefficient proxy analyzes the density on an FFT grid wide enough
    # for its band; validation refuses grids past the cap without building them
    huge_band = base_config(density="wrapped_normal(1e-10)", risk_method="coefficient-proxy")
    with pytest.raises(ConfigError, match=r"analysis grid of 182091255547\^1 points .* the cap"):
        tn.config_from_dict(huge_band)
    cube = base_config(
        density="product(wrapped_normal(0.01),wrapped_normal(0.01),wrapped_normal(0.01))",
        d=3, m=[1, 0, 0], J=2, grid=17, risk_method="both",
    )  # fmt: skip
    with pytest.raises(ConfigError, match=r"analysis grid of 1833\^3 points"):
        tn.config_from_dict(cube)
    # the same densities pass when only the grid risk runs: nothing is analyzed
    tn.config_from_dict({**huge_band, "risk_method": "grid-quadrature"})
    tn.config_from_dict({**cube, "risk_method": "grid-quadrature"})
    path = tmp_path / "huge_band.json"
    path.write_text(json.dumps(huge_band))
    out = tmp_path / "out"
    assert main(["bench", str(path), "--out", str(out)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_evaluation_grid_above_cap():
    plane = base_config(density="uniform", d=2, m=[1, 0])
    tn.config_from_dict({**plane, "grid": 10**4})  # 10^8 points: at the cap
    with pytest.raises(ConfigError, match=r"evaluation grid of 10001\^2 points exceeds"):
        tn.config_from_dict({**plane, "grid": 10**4 + 1})
    with pytest.raises(ConfigError, match="evaluation grid"):
        tn.config_from_dict(base_config(grid=10**8 + 1, risk_method="coefficient-proxy"))


def test_config_rejects_cubature_above_cap():
    # ceil(B^2) = 5000: levels 0..1 need 2*5000 - 1 = 9999 grid points per
    # axis, within the cap in d=2, but level 1's cubature has 10001^2 points
    B = math.sqrt(4999.5)
    assert math.ceil(B**2) == 5000
    plane = base_config(
        density="product(wrapped_normal(1.0),wrapped_normal(1.0))", d=2, m=[1, 0], B=B, J=2
    )
    with pytest.raises(ConfigError, match=r"cubature of 10001\^2 points at level 1") as exc:
        tn.config_from_dict({**plane, "grid": 9999})
    assert "grid must be" not in str(exc.value) and "evaluation grid" not in str(exc.value)
    with pytest.raises(ValueError, match=r"cubature of 10001\^2 points at level 1"):
        tn.NeedletFrame(B, 2, 1)


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8,
)
# values that pass the type checks but sit at the edges of float range
_EDGE_VALUES = st.sampled_from(
    [
        0, 1, 2, 3, 5000, 2**63, 10**400, 1.0000001, 1e-320, 1e308, math.inf, math.nan,
        "auto", "inf", "uniform", "wrapped_normal(1e-320)", "wrapped_normal(nan)",
        "wrapped_normal(inf)", "product(uniform,uniform)", [1], [0, 1], [5000],
        [10**400], [1e308], [math.inf], [math.nan], ["inf"], ["soft"],
    ]
)


@st.composite
def _fuzzed_configs(draw):
    """A valid config with a few keys replaced by edge or arbitrary values, dropped or added."""
    data = base_config()
    keys = draw(st.lists(st.sampled_from(sorted(data) + ["extra"]), min_size=1, max_size=3))
    for key in keys:
        if draw(st.integers(0, 5)) == 0:
            data.pop(key, None)
        else:
            data[key] = draw(_EDGE_VALUES | _JSON_VALUES)
    return data


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_fuzzed_configs() | _JSON_VALUES | st.dictionaries(st.text(max_size=8), _JSON_VALUES))
def test_config_fuzz_raises_only_config_error(data):
    try:
        cfg = tn.config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, tn.ExperimentConfig)


def test_config_validates_density_name():
    with pytest.raises(ConfigError, match="unknown density"):
        tn.config_from_dict(base_config(density="mystery"))
    with pytest.raises(ConfigError, match="sigma=7 is too large"):
        tn.config_from_dict(base_config(density="wrapped_normal(7)"))
    with pytest.raises(ConfigError, match="d=2"):
        tn.config_from_dict(base_config(d=2, m=[1, 0], grid=9))


def test_config_round_trip_through_dict():
    cfg = tn.config_from_dict(base_config(p=[2, "inf"], J="auto"))
    again = tn.config_from_dict(cfg.to_dict())
    assert again == cfg


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    assert tn.load_config(path) == tn.config_from_dict(base_config())


# ---------------------------------------------------------------- risk metrics


@pytest.fixture(scope="module")
def wn():
    return tn.wrapped_normal(1.0)


@pytest.fixture(scope="module")
def frame4():
    return tn.NeedletFrame(2.0, 1, 4)


def exact_estimator(density, J, m=(1,)):
    # estimator whose coefficients are the exact quadrature values: no noise,
    # only truncation bias
    frame = tn.NeedletFrame(2.0, 1, max(J - 1, 0))
    coeffs = tn.analyze(frame, density, m, jmax=J - 1)
    rule = tn.ThresholdRule("hard", 0.0, m, 1000, 2.0)
    return tn.DerivativeEstimator(frame, m, rule, J, coeffs, coeffs, tuple(0.0 for _ in range(J)))


def test_an_estimator_built_without_a_plan_counts_its_survivors(wn):
    # exact_estimator builds its DerivativeEstimator directly, with no plan;
    # its counts are those of the same coefficients thresholded through one
    est = exact_estimator(wn, 3)
    assert est.plan is None
    planned = tn.estimation.thresholded_estimator(est.frame, est.raw, est.rule)
    assert planned.plan is not None
    alive = [int(np.count_nonzero(lv)) for lv in est.coeffs.levels]
    want = [(j, a, lv.size, a / lv.size) for j, (a, lv) in enumerate(zip(alive, est.coeffs.levels))]
    assert est.surviving_counts() == planned.surviving_counts() == want
    assert est.survivors().tolist() == alive


def test_lp_distance_zero_truth_zero_estimator():
    uni = tn.uniform_density(1)
    frame = tn.NeedletFrame(2.0, 1, 2)
    rule = tn.ThresholdRule("hard", 1e9, (1,), 100, 2.0)
    rng = np.random.default_rng(4)
    est = tn.estimate(frame, rng.uniform(0, 2 * np.pi, (100, 1)), (1,), rule, J_override=2)
    for p in (1.0, 2.0, math.inf):
        assert tn.lp_distance(est, uni, p, 129) == 0.0
    # the proxy integrates the flat density numerically, leaving roundoff
    assert tn.lp_distance(est, uni, 2.0, 129, method="coefficient-proxy") < 1e-12


@pytest.mark.parametrize("B", [2.0, 1.5])
def test_grid_bound_at_the_boundary(B, wn):
    # J=3 levels live on |l| <= ceil(B^3) - 1: 15 points at B=2, 7 at B=1.5
    J = 3
    need = 2 * math.ceil(B**J) - 1
    assert tn.frame.min_grid_size(B, J) == need
    tn.config_from_dict(base_config(B=B, grid=need))
    with pytest.raises(ConfigError, match=f"grid must be at least {need} "):
        tn.config_from_dict(base_config(B=B, grid=need - 1))
    X = wn.sampler(np.random.default_rng(3), 500)
    rule = tn.ThresholdRule("hard", 0.0, (1,), 500, B)
    est = tn.estimate(tn.NeedletFrame(B, 1, J - 1), X, (1,), rule, J_override=J)
    assert tn.lp_distance(est, wn, 2.0, need) > 0
    with pytest.raises(ValueError, match=f"needs >= {need}"):
        tn.lp_distance(est, wn, 2.0, need - 1)

    # need points integrate the square of the estimate exactly, one fewer does not
    def energy(npts):
        return tn.TWO_PI / npts * float(np.sum(est.evaluate(tn.uniform_grid(npts, 1)) ** 2))

    fine = energy(8 * need + 3)
    assert energy(need) == pytest.approx(fine, rel=1e-12)
    assert energy(need - 1) != pytest.approx(fine, rel=1e-6)


def test_lp_distance_validation(wn):
    est = exact_estimator(wn, 3)
    with pytest.raises(ValueError, match="p = 2 only"):
        tn.lp_distance(est, wn, 1.0, 129, method="coefficient-proxy")
    with pytest.raises(ValueError, match="unknown risk method"):
        tn.lp_distance(est, wn, 2.0, 129, method="bootstrap")
    with pytest.raises(ValueError, match="cannot resolve"):
        tn.lp_distance(est, wn, 2.0, 7)


def test_lp_distance_truncation_bias_decreases(wn):
    # exact coefficients isolate the truncation bias, which collapses fast:
    # the wrapped normal has almost no energy past |l| = 8
    biases = [tn.lp_distance(exact_estimator(wn, J), wn, 2.0, 513) for J in (2, 3, 4)]
    assert biases[0] > 100 * biases[1] > 0
    assert biases[1] > 100 * biases[2] > 0
    assert biases[2] < 1e-12


def test_lp_distance_mass_restored_for_density_itself(wn):
    # m = 0: the synthesized estimator lives on the zero-mean part; the
    # metric adds the mean back, so an exact estimator has only tail bias
    est = exact_estimator(wn, 4, m=(0,))
    assert tn.lp_distance(est, wn, 2.0, 513) < 1e-12


def test_proxy_matches_grid_when_nothing_survives(frame4, wn):
    # with the benchmark constant at its largest the surviving coefficients
    # sit at the coarsest level and both metrics reduce to the same residual
    rng = np.random.default_rng(tn.child_seed(777, 0))
    X = wn.sampler(rng, 8000)
    rule = tn.calibrated_rule("hard", 5.0, wn.sup_norm, frame4.window, (1,), 8000, 2.0)
    est = tn.estimate(frame4, X, (1,), rule, J_override=4)
    grid = tn.lp_distance(est, wn, 2.0, 257)
    proxy = tn.lp_distance(est, wn, 2.0, 257, method="coefficient-proxy")
    assert abs(grid - proxy) <= 0.25 * grid


def test_proxy_grid_ratio_band_in_noise_regime(frame4, wn):
    # when survivors carry estimation noise the frame redundancy makes the
    # grid norm smaller than the coefficient proxy; the ratio stays in a
    # stable band for this seeded sample
    rng = np.random.default_rng(tn.child_seed(777, 0))
    X = wn.sampler(rng, 8000)
    for k0 in (0.5, 1.0):
        rule = tn.calibrated_rule("hard", k0, wn.sup_norm, frame4.window, (1,), 8000, 2.0)
        est = tn.estimate(frame4, X, (1,), rule, J_override=4)
        grid = tn.lp_distance(est, wn, 2.0, 257)
        proxy = tn.lp_distance(est, wn, 2.0, 257, method="coefficient-proxy")
        assert 0.5 <= grid / proxy <= 1.05


# ---------------------------------------------------------------- experiment loop


def run(cfg_over=None, threads=1):
    cfg = tn.config_from_dict(base_config(**(cfg_over or {})))
    return tn.run_experiment(cfg, threads=threads)


def test_run_experiment_row_shapes():
    report = run({"replications": 2, "kappa0": [0.5, 2.0], "rules": ["hard", "soft"]})
    # 2 reps x 2 kappa0 x 2 rules x 3 levels
    assert len(report.count_rows) == 24
    assert len(report.risk_rows) == 8
    assert len(report.child_seeds) == 2
    first = report.count_rows[0]
    assert first.replication == 0 and first.j == 0
    assert all(row.method == "grid-quadrature" for row in report.risk_rows)


def test_run_experiment_is_deterministic():
    a = run({"replications": 2})
    b = run({"replications": 2})
    assert a.count_rows == b.count_rows
    assert a.risk_rows == b.risk_rows
    assert a.child_seeds == b.child_seeds


def test_run_experiment_replications_share_seed_stream():
    # replication r uses child_seed(seed, r), so a longer run extends a
    # shorter one without disturbing the common prefix
    short = run({"replications": 2})
    long = run({"replications": 4})
    assert short.count_rows == long.count_rows[: len(short.count_rows)]
    assert short.risk_rows == long.risk_rows[: len(short.risk_rows)]


def test_run_experiment_thread_count_is_invisible():
    solo = run({"replications": 4})
    pooled = run({"replications": 4}, threads=4)
    assert solo.count_rows == pooled.count_rows
    assert solo.risk_rows == pooled.risk_rows


def test_run_experiment_thread_count_is_invisible_d2():
    # d=2 contracts the sample spectrum with a GEMM and synthesizes through
    # a two-axis box; neither may depend on how replications are scheduled
    over = {
        "density": "product(wrapped_normal(1.0),wrapped_normal(1.0))",
        "d": 2,
        "m": [1, 0],
        "J": 2,
        "grid": 17,
        "replications": 4,
        "rules": ["hard", "soft"],
    }
    solo = run(over)
    pooled = run(over, threads=2)
    assert solo.count_rows == pooled.count_rows
    assert solo.risk_rows == pooled.risk_rows


def run_width(cfg):
    """The columns per estimator row that run_experiment sizes cfg's chunks by: its scorer's width."""
    J = cfg.resolved_J()
    frame = tn.NeedletFrame(cfg.B, cfg.d, jmax=max(J - 1, 0))
    plan = tn.estimation._ReplicationPlan(frame, cfg.m, J)
    truth = tn.density_from_name(cfg.density, cfg.d)
    return tn.bench._Scorer(plan, truth, cfg.grid, tn.bench.risk_columns(cfg)).width


def test_threads_fill_their_own_slices_of_the_report(monkeypatch):
    # every chunk writes its replications' slice of the report's two arrays
    # from a pool thread; with one replication a chunk, more threads than
    # cores and a short switch interval, a slice written twice, or not at
    # all, would differ from the serial run
    over = {"replications": 12, "kappa0": [0.5, 2.5], "rules": ["hard", "soft"]}
    cfg = tn.config_from_dict(base_config(**over, p=[1, 2], risk_method="both"))
    monkeypatch.setattr(tn.bench, "CHUNK_BYTES", 1)
    assert tn.bench.chunk_replications(4, run_width(cfg)) == 1
    solo = tn.run_experiment(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = tn.run_experiment(cfg, threads=6)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(pooled.surviving, solo.surviving)
    np.testing.assert_array_equal(pooled.risks, solo.risks)


def test_chunk_sizes_of_the_benchmark_workloads():
    # p = 2 alone is scored on the box spectrum: the paper's 8 rows on its
    # 31 columns (J = 4, B = 2) give 132 replications a chunk, and the same
    # rows on the d = 2 box of 31^2 columns give 4. An exponent other than 2
    # forms the grid values: 8 rows on 257 points give 15, on 65^2 points 1
    paper = tn.load_config(Path(__file__).resolve().parents[1] / "configs" / "paper_table3.json")
    product = "product(wrapped_normal(1.0),wrapped_normal(1.0))"
    d2 = dataclasses.replace(paper, density=product, d=2, m=(1, 0), grid=65)
    assert run_width(paper) == 31
    assert run_width(d2) == 31**2
    assert run_width(dataclasses.replace(paper, p=(1.0, 2.0))) == 257
    assert run_width(dataclasses.replace(d2, p=(2.0, math.inf))) == 65**2
    proxy = dataclasses.replace(paper, risk_method="coefficient-proxy")
    assert run_width(proxy) == 5 + 9 + 17 + 33  # the cubatures of levels 0..3
    assert tn.bench.chunk_replications(8, 31) == 132
    assert tn.bench.chunk_replications(8, 31**2) == 4
    assert tn.bench.chunk_replications(8, 257) == 15
    assert tn.bench.chunk_replications(8, 65**2) == 1
    assert tn.bench.chunk_replications(1, 64) == tn.bench.CHUNK_BYTES // (16 * 64)


_D2_ROWS = {
    "density": "product(wrapped_normal(1.0),wrapped_normal(0.7))",
    "d": 2,
    "m": [1, 0],
    "n": 300,
    "J": 3,
    "grid": 33,
    "kappa0": [0.5, 2.5],
    "rules": ["hard", "soft"],
    "p": [1, 2, "inf"],
    "risk_method": "both",
}


@pytest.mark.parametrize(
    "over", [{}, {"kappa0": [0.25]}, _D2_ROWS], ids=["one-row", "one-row-one-band", "d2-rows"]
)
def test_chunks_are_invisible(monkeypatch, over):
    # a budget of three replications a chunk: every count from 1 to 5 puts the
    # last replication at another place in its chunk (alone at the end of one
    # at 4), and a replication's rows must not change with any of it. At
    # kappa0 = 0.25 every replication keeps level 2, so all share one band
    # and replication 3 is evaluated alone at 4 but beside replication 4 at 5
    cfg = tn.config_from_dict(base_config(**over))
    rows = len(cfg.kappa0) * len(cfg.rules)
    # the width run_experiment sizes its chunks by: the box for p = 2 alone
    width = run_width(cfg)
    monkeypatch.setattr(tn.bench, "CHUNK_BYTES", 3 * 16 * rows * width)
    assert tn.bench.chunk_replications(rows, width) == 3
    longest = tn.run_experiment(dataclasses.replace(cfg, replications=5))
    for threads in (1, 2):
        for reps in range(1, 6):
            got = tn.run_experiment(dataclasses.replace(cfg, replications=reps), threads=threads)
            # the shapes in play, should a BLAS round a GEMM's rows by its row count
            shapes = (
                f"{reps} replications, threads={threads}: (chunk x {rows} rows, "
                f"{width} columns) against (3 x {rows}, {width})"
            )
            assert got.count_rows == longest.count_rows[: len(got.count_rows)], shapes
            assert got.risk_rows == longest.risk_rows[: len(got.risk_rows)], shapes
            assert len(got.risk_rows) * 5 == len(longest.risk_rows) * reps


def _stack_and_truth(d, m, J, L_extra, rows, seed):
    # a random thresholded stack on NeedletFrame(2, d, J-1): normal
    # coefficients with about half of each row's levels zeroed, and the
    # wrapped-normal truth on the grid of 2L+1+L_extra points per axis
    frame = tn.NeedletFrame(2.0, d, J - 1)
    plan = tn.estimation._ReplicationPlan(frame, m, J)
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(rows, plan.size)) * (rng.random((rows, plan.size)) < 0.6)
    for cols in plan.slices:
        flat[rng.random(rows) < 0.5, cols] = 0.0
    coeffs = tn.CoefficientArray.from_flat(m, flat, plan.slices)
    sigmas = ",".join(f"wrapped_normal({0.6 + 0.2 * i})" for i in range(d))
    density = tn.density_from_name(sigmas if d == 1 else f"product({sigmas})", d)
    G = 2 * plan.L + 1 + L_extra
    grid = tn.uniform_grid(G, d)
    truth = density.derivative(m, grid[:, 0] if d == 1 else grid)
    return frame, plan, coeffs, G, grid, truth


@settings(max_examples=30, deadline=2000)
@given(
    d=st.sampled_from([1, 2]),
    order=st.sampled_from([0, 1]),
    J=st.integers(1, 3),
    L_extra=st.integers(0, 6),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_risk_is_the_grid_quadrature(d, order, J, L_extra, rows, seed):
    # discrete Parseval: on any uniform grid of G >= 2L+1 points per axis,
    # odd or even, the p = 2 risk from the box spectrum is the quadrature of
    # the synthesized values (with the density mean for m = 0)
    m = (order,) + (0,) * (d - 1)
    frame, plan, coeffs, G, grid, truth = _stack_and_truth(d, m, J, L_extra, rows, seed)
    box, _ = tn.estimation.synthesis_box(frame, coeffs, plan=plan)
    centred = truth - tn.TWO_PI**-d if order == 0 else truth
    got = tn.bench._l2_from_box(box, tn.bench.truth_spectrum(centred, d, G, plan.L), d)
    values = tn.estimation.with_density_mean(tn.synthesize(frame, coeffs, grid, plan=plan), m)
    want = tn.bench._lp_from_values(values, truth, 2.0, d, G)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_box_risk_refuses_a_broken_symmetry(monkeypatch):
    # a box that is not conjugate-symmetric synthesizes complex values: the
    # risk refuses it as synthesis refuses their imaginary residue
    frame, plan, coeffs, G, _, truth = _stack_and_truth(1, (1,), 3, 0, 2, 7)
    box, _ = tn.estimation.synthesis_box(frame, coeffs, plan=plan)
    spectrum = tn.bench.truth_spectrum(truth, 1, G, plan.L)
    tn.bench._l2_from_box(box, spectrum, 1)
    box[plan.L + 2, 1] += 1e-6j
    with pytest.raises(ValueError, match="imaginary residue 1.000e-06 exceeds"):
        tn.bench._l2_from_box(box, spectrum, 1)
    original = tn.bench.synthesis_box

    def leaky(*args, **kwargs):
        box, top = original(*args, **kwargs)
        box[plan.L + 1] += 1e-6j  # at l = 1 in every row, not at l = -1
        return box, top

    rule = tn.ThresholdRule("hard", 0.0, (1,), 300, 2.0)
    est = tn.estimate(frame, np.random.default_rng(3).uniform(0, 6, 300), (1,), rule, J_override=3)
    monkeypatch.setattr(tn.bench, "synthesis_box", leaky)
    with pytest.raises(RuntimeError, match="imaginary residue"):
        run({"replications": 2})
    with pytest.raises(ValueError, match="imaginary residue"):
        tn.lp_distance(est, tn.wrapped_normal(1.0), 2.0, G)


def test_p2_runs_form_no_grid_values(monkeypatch):
    # p = 2 alone is scored on the box spectrum: nothing is evaluated on the
    # grid, in run_experiment or in lp_distance
    def refuse(*args, **kwargs):
        raise AssertionError("grid values formed for a p = 2 risk")

    monkeypatch.setattr(tn.frame, "grid_values", refuse)
    monkeypatch.setattr(tn.estimation, "synthesize", refuse)
    monkeypatch.setattr(tn.bench, "box_values", refuse)
    mixed = {"risk_method": "both", "m": [0], "kappa0": [0.5, 5.0], "rules": ["hard", "soft"]}
    for over in ({}, mixed):
        report = run({"replications": 2, **over})
        assert all(row.risk > 0 for row in report.risk_rows)
    frame = tn.NeedletFrame(2.0, 1, 2)
    rule = tn.ThresholdRule("hard", 0.0, (1,), 300, 2.0)
    est = tn.estimate(frame, np.random.default_rng(3).uniform(0, 6, 300), (1,), rule, J_override=3)
    assert tn.lp_distance(est, tn.wrapped_normal(1.0), 2.0, 65) > 0


def test_a_mixed_p_run_builds_one_box_per_chunk(monkeypatch):
    # p = 2 beside p = 1 and inf: every grid column of a chunk reads the one
    # box the scorer builds, and no column builds it again through synthesize
    builds = []
    original = tn.estimation.synthesis_box

    def spy(*args, **kwargs):
        builds.append(args[1].lead)
        return original(*args, **kwargs)

    # the scorer's name for it, and synthesize's
    monkeypatch.setattr(tn.bench, "synthesis_box", spy)
    monkeypatch.setattr(tn.estimation, "synthesis_box", spy)
    root = Path(__file__).resolve().parents[1]
    golden = json.loads((root / "tests" / "golden" / "product_d2.json").read_text())["config"]
    paper = json.loads((root / "configs" / "paper_table3.json").read_text())
    # 10 replications in chunks of 7 and 3, and 50 in chunks of 15, 15, 15 and 5
    for data, chunks in ((golden, 2), ({**paper, "p": [1, 2, "inf"], "replications": 50}, 4)):
        config = tn.config_from_dict(data)
        builds.clear()
        tn.run_experiment(config)
        assert len(builds) == chunks
        assert sum(lead[0] for lead in builds) == config.replications


def test_uniform_density_with_nothing_surviving_scores_exactly_zero():
    # m = 0: the truth minus its mean is exactly zero, and so is an empty
    # box and its values on the grid, so every grid risk is 0.0 exactly
    for p in ([2], [1, 2, "inf"]):
        over = {"density": "uniform", "m": [0], "n": 2000, "kappa0": [5.0], "replications": 4}
        report = run({**over, "p": p})
        assert all(row.surviving == 0 for row in report.count_rows)
        assert [row.risk for row in report.risk_rows] == [0.0] * 4 * len(p)


def test_run_experiment_survivors_nonincreasing_in_kappa0():
    report = run({"replications": 3, "kappa0": [0.5, 1.0, 2.5, 5.0], "n": 2000, "J": 3})
    frac = {}
    for row in report.count_rows:
        frac[(row.replication, row.j, row.kappa0)] = row.fraction
    for r in range(3):
        for j in range(3):
            series = [frac[(r, j, k0)] for k0 in (0.5, 1.0, 2.5, 5.0)]
            assert all(a >= b for a, b in zip(series, series[1:]))


def test_run_experiment_both_methods_and_proxy_rows():
    report = run({"risk_method": "both", "replications": 1})
    methods = {row.method for row in report.risk_rows}
    assert methods == {"grid-quadrature", "coefficient-proxy"}
    assert len(report.risk_rows) == 2


@pytest.mark.parametrize(
    "over",
    [
        {},
        {"m": [0]},
        {
            "density": "product(wrapped_normal(1.0),wrapped_normal(0.7))",
            "d": 2,
            "m": [1, 0],
            "J": 2,
            "grid": 17,
        },
        # about a third of these draws take the wrap's np.mod branch
        {"density": "wrapped_normal(6.9)"},
        {"density": "uniform", "d": 2, "m": [1, 0], "J": 2, "grid": 17},
        # three spectrum row blocks, each drawn just before it is reduced,
        # against estimate's one draw of all n points
        {"n": 40_000},
        {"density": "uniform", "d": 2, "m": [1, 0], "J": 2, "grid": 17, "n": 70_000},
    ],
)
def test_run_experiment_rows_equal_single_estimators(over):
    # every row of a replication's stacked estimator is the estimator that
    # estimate builds for its rule from the same child_seed sample; the
    # replications share one chunk and its workspace, and each is redrawn
    # here without one, so a workspace that kept an earlier draw would show
    cfg = tn.config_from_dict(
        base_config(
            **{
                "replications": 2,
                "kappa0": [0.5, 1.0, 2.5],
                "rules": ["hard", "soft"],
                "p": [1, 2, "inf"],
                "risk_method": "both",
                **over,
            }
        )
    )
    report = tn.run_experiment(cfg)
    density = tn.density_from_name(cfg.density, cfg.d)
    J = cfg.resolved_J()
    frame = tn.NeedletFrame(cfg.B, cfg.d, max(J - 1, 0))
    counts = {(c.rule, c.kappa0, c.replication, c.j): c[4:] for c in report.count_rows}
    risks = {(r.rule, r.kappa0, r.replication, r.p, r.method): r.risk for r in report.risk_rows}
    checked = set()
    for r in range(cfg.replications):
        # the run reduces each draw as drawn, unwrapped
        rng = np.random.default_rng(tn.child_seed(cfg.seed, r))
        X = density.draw(rng, np.empty(cfg.n * cfg.d))
        for kind in cfg.rules:
            for k0 in cfg.kappa0:
                rule = tn.calibrated_rule(
                    kind, k0, density.sup_norm, frame.window, cfg.m, cfg.n, cfg.B
                )
                est = tn.estimate(frame, X, cfg.m, rule, J_override=J)
                for j, *count in est.surviving_counts():
                    assert counts[(kind, k0, r, j)] == tuple(count)
                    checked.add((kind, k0, r, j))
                proxy = (kind, k0, r, 2.0, "coefficient-proxy")
                assert risks[proxy] == tn.lp_distance(
                    est, density, 2.0, cfg.grid, method="coefficient-proxy"
                )
                checked.add(proxy)
                for p in cfg.p:
                    grid = tn.lp_distance(est, density, p, cfg.grid)
                    assert risks[(kind, k0, r, p, "grid-quadrature")] == pytest.approx(
                        grid, rel=1e-12, abs=0.0
                    )
                    checked.add((kind, k0, r, p, "grid-quadrature"))
    assert checked == set(counts) | set(risks)


@pytest.mark.parametrize(
    "name,d,n",
    [
        ("wrapped_normal(1.0)", 1, 100_000),
        ("wrapped_normal(1.0)", 1, 2_000_000),
        # about a third of these draws leave (-2pi, 2pi): the wrap's np.mod branch
        ("wrapped_normal(6.9)", 1, 100_000),
        ("uniform", 2, 100_000),
        ("uniform", 2, 2_000_000),
        ("product(wrapped_normal(1.0),uniform)", 2, 100_000),
        ("uniform", 3, 100_000),
    ],
)
def test_a_replication_in_a_workspace_allocates_no_sample_sized_array(name, d, n):
    # what one_chunk does: allocate the chunk's draw workspace, then per
    # replication draw into it, check the sample and reduce it in the chunk's
    # table buffer. A law whose draw streams holds one spectrum row block of
    # its sample at a time, so its workspace and replication together stay
    # within a byte bound whatever n is; a product draws all n rows into an
    # n x d workspace, beside which its replication allocates as little
    L = 15 if d < 3 else 7
    density = tn.density_from_name(name, d)
    tables = tn.bench.spectrum_buffer(n, d, L)

    def replication(seed):
        work = tn.bench._draw_workspace(density, n, L)
        points = tn.bench._drawn(density, np.random.default_rng(seed), n, work)
        return tn.bench.sample_spectrum(points, L, buffer=tables)

    first = replication(1)
    tracemalloc.start()
    try:
        second = replication(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density.streams == ("product" not in name)
    assert peak < (0 if density.streams else 8 * n * d) + (512 << 10)
    assert second.shape == first.shape and not np.array_equal(first, second)


def test_a_large_n_replication_peaks_within_one_mib():
    # large_n_d1's shape at n = 4e6: the wrapped normal, m = 1, J = auto (6
    # levels, L = 63). A chunk of one replication allocates its table buffer
    # and draw workspace, draws its sample block by block and reduces it;
    # a draw of all n rows would be 30.5 MiB on its own
    n = 4_000_000
    J = tn.truncation_level(n, 1, 1, 2.0)
    L = tn.frame.box_half_width(2.0, J - 1)
    density = tn.wrapped_normal(1.0)
    tracemalloc.start()
    try:
        tables = tn.bench.spectrum_buffer(n, 1, L)
        work = tn.bench._draw_workspace(density, n, L)
        points = tn.bench._drawn(density, np.random.default_rng(5), n, work)
        S = tn.bench.sample_spectrum(points, L, buffer=tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (J, L) == (6, 63)
    assert S[L].real == n and np.isfinite(S).all()
    assert peak <= 1 << 20


def test_risk_aggregates_mean_and_stderr():
    report = run({"replications": 3})
    risks = [row.risk for row in report.risk_rows]
    agg = report.risk_aggregates()
    assert len(agg) == 1
    entry = agg[0]
    assert entry["mean"] == pytest.approx(np.mean(risks))
    assert entry["stderr"] == pytest.approx(np.std(risks, ddof=1) / math.sqrt(3))
    single = run({"replications": 1}).risk_aggregates()[0]
    assert single["stderr"] == 0.0



def test_aggregates_are_the_per_key_reductions_bit_for_bit():
    # R = 40 runs past numpy's 8-wide pairwise unroll: each aggregate must be
    # np.mean / np.std(ddof=1) of its key's draws in replication order, the
    # 1-d lists the rows give, to the bit
    cfg = {"replications": 40, "kappa0": [0.5, 2.5], "rules": ["hard", "soft"]}
    report = run({**cfg, "p": [1, 2, "inf"], "risk_method": "both"})
    risks, fractions = {}, {}
    for r in report.risk_rows:
        risks.setdefault((r.method, r.rule, r.kappa0, r.p), []).append(r.risk)
    for c in report.count_rows:
        fractions.setdefault((c.rule, c.kappa0, c.j), []).append(c.fraction)
    aggregates = report.risk_aggregates()
    keys = [(a["method"], a["rule"], a["kappa0"], a["p"]) for a in aggregates]
    grid = [("grid-quadrature", k, k0, p) for k in cfg["rules"] for k0 in cfg["kappa0"]
            for p in (1.0, 2.0, "inf")]  # fmt: skip
    proxy = [("coefficient-proxy", k, k0, 2.0) for k in cfg["rules"] for k0 in cfg["kappa0"]]
    assert keys == grid + proxy
    for a in aggregates:
        vals = risks[a["method"], a["rule"], a["kappa0"], math.inf if a["p"] == "inf" else a["p"]]
        assert len(vals) == a["replications"] == 40
        assert a["mean"] == float(np.mean(vals))
        assert a["stderr"] == float(np.std(vals, ddof=1) / math.sqrt(40))
    counts = report.count_aggregates()
    levels = [(k, k0, j) for k in cfg["rules"] for k0 in cfg["kappa0"] for j in range(3)]
    assert [(a["rule"], a["kappa0"], a["j"]) for a in counts] == levels
    for a in counts:
        assert a["mean_fraction"] == float(np.mean(fractions[a["rule"], a["kappa0"], a["j"]]))
    # a report of no replications has no aggregates
    empty = dataclasses.replace(
        report, surviving=report.surviving[..., :0], risks=report.risks[..., :0], child_seeds=()
    )
    assert empty.risk_aggregates() == [] and empty.count_aggregates() == []


# ---------------------------------------------------------------- report I/O


def test_emit_csv_files_and_header_only_when_empty(tmp_path):
    cfg = tn.config_from_dict(base_config())
    members = tuple((k0, kind) for k0 in cfg.kappa0 for kind in cfg.rules)
    columns = tn.bench.risk_columns(cfg)
    surviving = np.zeros((len(members), cfg.resolved_J(), 0), dtype=np.int64)
    risks = np.zeros((len(members), len(columns), 0))
    totals = tuple(tn.frame.cubature_size(cfg.B, j) ** cfg.d for j in range(cfg.resolved_J()))
    empty = RiskReport(cfg, members, columns, surviving, risks, (), totals)
    tn.emit_report(empty, tmp_path)
    counts = (tmp_path / "bench_counts.csv").read_text()
    risks = (tmp_path / "bench_risks.csv").read_text()
    assert counts == "density,n,m,rule,kappa0,replication,j,surviving,total,fraction\n"
    assert risks == "density,n,m,rule,kappa0,replication,p,risk\n"
    assert not (tmp_path / "bench_risks_proxy.csv").exists()


def test_emit_csv_row_contents(tmp_path):
    report = run({"replications": 1})
    tn.emit_report(report, tmp_path)
    lines = (tmp_path / "bench_counts.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 levels
    cells = lines[1].split(",")
    assert cells[0] == "wrapped_normal(1.0)"
    assert cells[1] == "500" and cells[2] == "1"
    assert cells[3] == "hard" and cells[5] == "0" and cells[6] == "0"
    assert int(cells[8]) == 5  # coarsest level has 5 pixels


@pytest.mark.parametrize(
    "over",
    [
        {"density": "product(wrapped_normal(1.0),wrapped_normal(0.7))", "d": 2, "m": [1, 0],
         "J": 2, "grid": 17, "n": 100},
        {"density": "wrapped_normal(1.0)\n", "risk_method": "both"},
    ],
    ids=["product", "newline"],
)  # fmt: skip
def test_emit_csv_quotes_the_density_field(tmp_path, over):
    # a density name holding a comma or a line break is one quoted field, so
    # csv.reader reads every row at the header's width and the name back
    report = run({"replications": 2, **over})
    tn.emit_report(report, tmp_path)
    names = ["bench_counts.csv", "bench_risks.csv"]
    names += ["bench_risks_proxy.csv"] if over.get("risk_method") == "both" else []
    for name in names:
        with open(tmp_path / name, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), name
        assert {row[0] for row in rows} == {over["density"]}, name


def test_emit_csv_proxy_companion(tmp_path):
    report = run({"risk_method": "both", "replications": 1})
    tn.emit_report(report, tmp_path)
    proxy = (tmp_path / "bench_risks_proxy.csv").read_text().strip().split("\n")
    assert len(proxy) == 2
    assert proxy[0] == "density,n,m,rule,kappa0,replication,p,risk"


def test_emit_csv_is_byte_stable(tmp_path):
    report = run({"replications": 2})
    one, two = tmp_path / "one", tmp_path / "two"
    tn.emit_report(report, one)
    tn.emit_report(report, two)
    for name in ("bench_counts.csv", "bench_risks.csv", "bench_report.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_emit_json_round_trip(tmp_path):
    report = run({"replications": 2, "p": [2, "inf"]})
    tn.emit_report(report, tmp_path)
    payload = json.loads((tmp_path / "bench_report.json").read_text())
    assert payload["config"] == report.config.to_dict()
    assert payload["child_seeds"] == [str(s) for s in report.child_seeds]
    assert len(payload["counts"]) == len(report.count_rows)
    ps = {row["p"] for row in payload["risks"]}
    assert ps == {2.0, "inf"}
    assert payload["aggregates"]["risks"] == report.risk_aggregates()
    assert payload["aggregates"]["counts"] == report.count_aggregates()
