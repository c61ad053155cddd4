"""Test seed derivation, config validation, risk metrics, and the benchmark loop."""

import json
import math
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


def test_config_grid_must_resolve_band():
    with pytest.raises(ConfigError, match="grid must be at least 33"):
        tn.config_from_dict(base_config(grid=17))


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
    return tn.build_frame(2.0, 1, 4)


def exact_estimator(density, J, m=(1,)):
    # estimator whose coefficients are the exact quadrature values: no noise,
    # only truncation bias
    frame = tn.build_frame(2.0, 1, max(J - 1, 0))
    coeffs = tn.analyze(frame, density, m, jmax=J - 1)
    rule = tn.ThresholdRule("hard", 0.0, m, 1000, 2.0)
    return tn.DerivativeEstimator(frame, m, rule, J, coeffs, coeffs, tuple(0.0 for _ in range(J)))


def test_lp_distance_zero_truth_zero_estimator():
    uni = tn.uniform_density(1)
    frame = tn.build_frame(2.0, 1, 2)
    rule = tn.ThresholdRule("hard", 1e9, (1,), 100, 2.0)
    rng = np.random.default_rng(4)
    est = tn.estimate(frame, rng.uniform(0, 2 * np.pi, (100, 1)), (1,), rule, J_override=2)
    for p in (1.0, 2.0, math.inf):
        assert tn.lp_distance(est, uni, p, 129) == 0.0
    # the proxy integrates the flat density numerically, leaving roundoff
    assert tn.lp_distance(est, uni, 2.0, 129, method="coefficient-proxy") < 1e-12


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


# ---------------------------------------------------------------- report I/O


def test_emit_csv_files_and_header_only_when_empty(tmp_path):
    cfg = tn.config_from_dict(base_config())
    empty = RiskReport(cfg, [], [], ())
    tn.emit_report(empty, "csv", tmp_path)
    counts = (tmp_path / "bench_counts.csv").read_text()
    risks = (tmp_path / "bench_risks.csv").read_text()
    assert counts == "density,n,m,rule,kappa0,replication,j,surviving,total,fraction\n"
    assert risks == "density,n,m,rule,kappa0,replication,p,risk\n"
    assert not (tmp_path / "bench_risks_proxy.csv").exists()


def test_emit_csv_row_contents(tmp_path):
    report = run({"replications": 1})
    tn.emit_report(report, "csv", tmp_path)
    lines = (tmp_path / "bench_counts.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 levels
    cells = lines[1].split(",")
    assert cells[0] == "wrapped_normal(1.0)"
    assert cells[1] == "500" and cells[2] == "1"
    assert cells[3] == "hard" and cells[5] == "0" and cells[6] == "0"
    assert int(cells[8]) == 5  # coarsest level has 5 pixels


def test_emit_csv_proxy_companion(tmp_path):
    report = run({"risk_method": "both", "replications": 1})
    tn.emit_report(report, "csv", tmp_path)
    proxy = (tmp_path / "bench_risks_proxy.csv").read_text().strip().split("\n")
    assert len(proxy) == 2
    assert proxy[0] == "density,n,m,rule,kappa0,replication,p,risk"


def test_emit_csv_is_byte_stable(tmp_path):
    report = run({"replications": 2})
    one, two = tmp_path / "one", tmp_path / "two"
    tn.emit_report(report, "csv", one)
    tn.emit_report(report, "csv", two)
    for name in ("bench_counts.csv", "bench_risks.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_emit_json_round_trip(tmp_path):
    report = run({"replications": 2, "p": [2, "inf"]})
    tn.emit_report(report, "json", tmp_path)
    payload = tn.load_report(tmp_path / "bench_report.json")
    assert payload["config"] == report.config.to_dict()
    assert payload["child_seeds"] == [str(s) for s in report.child_seeds]
    assert len(payload["counts"]) == len(report.count_rows)
    ps = {row["p"] for row in payload["risks"]}
    assert ps == {2.0, "inf"}
    assert payload["aggregates"]["risks"] == report.risk_aggregates()
    assert payload["aggregates"]["counts"] == report.count_aggregates()


def test_emit_rejects_unknown_format(tmp_path):
    report = run({"replications": 1})
    with pytest.raises(ValueError, match="format"):
        tn.emit_report(report, "parquet", tmp_path)
