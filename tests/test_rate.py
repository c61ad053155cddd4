"""The estimator's L2 risk decays at a rate, not only in order.

The paper's bound is (n / ln n)^(-alpha) over a Besov ball. For the first
derivative of wrapped_normal(1.0) (hard rule, kappa0 = 1, J auto, 50
replications per n) the log-log slope of the mean L2 risk against n / ln n
was measured over the seeds 101..130, which this test does not use:
min -0.649, max -0.572, mean -0.612, standard deviation 0.017. The bound
below is that mean +- 4 standard deviations, rounded outwards. The seed
was fixed before the test was first run.
"""

import math

import numpy as np

import torneed as tn

SEED = 20261018
SIZES = (500, 2000, 8000, 32000)
SLOPE_BOUNDS = (-0.68, -0.54)


def mean_l2_risk(n):
    cfg = tn.config_from_dict(
        {
            "density": "wrapped_normal(1.0)", "d": 1, "B": 2, "m": [1], "n": n,
            "replications": 50, "kappa0": [1.0], "rules": ["hard"], "J": "auto",
            "grid": 257, "p": [2], "seed": SEED, "risk_method": "grid-quadrature",
            "literal_paper_kappa": False,
        }
    )  # fmt: skip
    return tn.run_experiment(cfg).risk_aggregates()[0]["mean"]


def test_mean_l2_risk_decays_at_the_measured_rate():
    risks = [mean_l2_risk(n) for n in SIZES]
    x = np.log([n / math.log(n) for n in SIZES])
    slope = float(np.polyfit(x, np.log(risks), 1)[0])
    lo, hi = SLOPE_BOUNDS
    assert lo <= slope <= hi, f"slope {slope:.4f} outside [{lo}, {hi}], risks {risks}"
