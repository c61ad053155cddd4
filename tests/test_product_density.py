"""Product densities: distinct-coordinate evaluation is exact, and imports nothing new.

product_density evaluates each factor once per distinct bit pattern of its
column and gathers the values back. The reference here is the row-by-row
product, `out *= comp.derivative((m_i,), pts[:, i])` factor by factor, and the
two must agree bit for bit on any point set.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torneed as tn
from torneed.densities import _distinct_values
from torneed.harmonics import TWO_PI

FACTORS = ("uniform", "wrapped_normal(1)", "wrapped_normal(0.7)", "wrapped_normal(0.35)")

# unreduced angles on both sides of [0, 2pi), the two zeros, and period multiples
ANGLES = st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI, 3 * TWO_PI + 0.25]) | st.floats(
    -20.0, 20.0, allow_nan=False
)


@st.composite
def product_cases(draw):
    d = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(FACTORS), min_size=d, max_size=d))
    m = tuple(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    if draw(st.booleans()):
        pts = tn.uniform_grid(draw(st.integers(1, 9)), d)
    else:
        # a few coordinate values repeated over many rows
        pool = draw(st.lists(ANGLES, min_size=1, max_size=6))
        n = draw(st.integers(0, 40))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * d, max_size=n * d))
        pts = np.array([pool[i] for i in picks], dtype=float).reshape(n, d)
    return names, m, pts


def _row_by_row(components, m, pts):
    pdf, der = np.ones(pts.shape[0]), np.ones(pts.shape[0])
    for i, comp in enumerate(components):
        pdf *= comp.pdf(pts[:, i])
        der *= comp.derivative((m[i],), pts[:, i])
    return pdf, der


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=product_cases())
@example(case=(["wrapped_normal(1)"] * 2, (1, 0), np.array([[-0.0, 0.0], [0.0, -0.0]])))
@example(case=(["wrapped_normal(0.7)", "uniform"], (2, 0), np.array([[-7.5, 13.0]])))
@example(case=(["uniform", "wrapped_normal(1)", "uniform"], (0, 1, 1), np.empty((0, 3))))
@example(case=(["wrapped_normal(1)"] * 3, (0, 2, 0), tn.uniform_grid(7, 3)))
def test_product_matches_row_by_row_bit_for_bit(case):
    names, m, pts = case
    density = tn.density_from_name("product(" + ", ".join(names) + ")", d=len(names))
    components = [tn.density_from_name(name, d=1) for name in names]
    want_pdf, want_der = _row_by_row(components, m, pts)
    got_pdf, got_der = density.pdf(pts), density.derivative(m, pts)
    assert got_pdf.shape == got_der.shape == (pts.shape[0],)
    np.testing.assert_array_equal(got_pdf.view(np.int64), want_pdf.view(np.int64))
    np.testing.assert_array_equal(got_der.view(np.int64), want_der.view(np.int64))


def test_distinct_values_groups_by_bit_pattern():
    # -0.0 and 0.0 compare equal and NaNs compare unequal; neither matters to bits
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    pts = np.zeros((8, 2))
    pts[:, 1] = [0.0, -0.0, np.nan, other_nan, 0.0, 1.5, np.nan, -0.0]
    values, inverse = _distinct_values(pts[:, 1])
    assert len(values) == 5  # 0.0, -0.0, two NaN payloads, 1.5
    np.testing.assert_array_equal(values[inverse].view(np.int64), pts[:, 1].view(np.int64))


# ---------------------------------------------------------------- no numpy.ma

_FRESH = """
import sys
import numpy as np
import torneed as tn
from torneed.cli import main

work, product = sys.argv[1], "product(wrapped_normal(1.0),wrapped_normal(0.7))"
if sys.argv[2] == "run_experiment":
    tn.run_experiment(tn.config_from_dict({
        "density": product, "d": 2, "B": 2, "m": [1, 0], "n": 300, "replications": 2,
        "kappa0": [1], "rules": ["hard", "soft"], "J": 2, "grid": 17, "p": [2, "inf"],
        "seed": 5, "risk_method": "both", "literal_paper_kappa": False,
    }))
else:
    np.savetxt(f"{work}/x2.csv", np.random.default_rng(5).uniform(0, 6.28, (300, 2)), delimiter=",")
    assert main([
        "estimate", f"{work}/x2.csv", "--d", "2", "--m", "1,0", "--kappa0", "1", "--M", "0.2",
        "--J", "2", "--out", f"{work}/e2",
    ]) == 0
    assert main(["eval-grid", f"{work}/e2", "--grid", "17", "--density", product,
                 "--out", f"{work}/g2.csv"]) == 0
print("numpy.ma" in sys.modules)
"""


def _fresh(tmp_path, mode):
    env = dict(os.environ)
    src = str(Path(tn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _FRESH, str(tmp_path), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_run_experiment_on_a_product_does_not_import_numpy_ma(tmp_path):
    proc = _fresh(tmp_path, "run_experiment")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "False"


def test_eval_grid_with_a_product_truth_does_not_import_numpy_ma(tmp_path):
    proc = _fresh(tmp_path, "eval-grid")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "False"
    header = (tmp_path / "g2.csv").read_text().split("\n")[0]
    assert header == "theta_1,theta_2,value,truth"
