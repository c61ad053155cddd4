"""Estimating a density derivative from a sample, end to end.

Draws wrapped-normal samples, forms empirical needlet coefficients of the
first derivative, thresholds them level by level, and compares the result
against the true derivative. The threshold constant follows the calibrated
schedule kappa = kappa0 * M * I_1 with the sqrt(ln n / n) sample factor.
"""

import numpy as np

import torneed as tn

B, d, m, n = 2.0, 1, (1,), 8000
wn = tn.wrapped_normal(1.0)

rng = np.random.default_rng(tn.child_seed(20240516, 0))
X = wn.sampler(rng, n)

# the rule of thumb picks the truncation level from n alone
J = tn.truncation_level(n, d, sum(m), B)
frame = tn.NeedletFrame(B, d, max(J - 1, 0))
print(f"n = {n}, truncation level J = {J} (levels 0..{J - 1} estimated)")

rule = tn.calibrated_rule("hard", 1.0, wn.sup_norm, frame.window, m, n, B)
est = tn.estimate(frame, X, m, rule)

print(f"threshold constant kappa = {rule.kappa:.4f}")
print("\nsurvivors per level")
for j, alive, total, frac in est.surviving_counts():
    tau = est.taus[j]
    print(f"  level {j}: {alive:3d}/{total:3d} kept ({100 * frac:5.1f}%)  tau = {tau:.4f}")

# risk against the true derivative, measured two ways
grid_risk = tn.lp_distance(est, wn, 2.0, 513)
proxy_risk = tn.lp_distance(est, wn, 2.0, 513, method="coefficient-proxy")
sup_risk = tn.lp_distance(est, wn, np.inf, 513)
print(f"\nL2 distance to f'   : {grid_risk:.4f} (grid quadrature)")
print(f"coefficient proxy   : {proxy_risk:.4f}")
print(f"sup distance to f'  : {sup_risk:.4f}")

# a stronger threshold trades variance for bias: sweep kappa0
print("\nkappa0 sweep (hard rule)")
for k0 in (0.5, 1.0, 2.5, 5.0):
    rule_k = tn.calibrated_rule("hard", k0, wn.sup_norm, frame.window, m, n, B)
    est_k = tn.estimate(frame, X, m, rule_k)
    alive = sum(a for _, a, _, _ in est_k.surviving_counts())
    risk = tn.lp_distance(est_k, wn, 2.0, 513)
    print(f"  kappa0 = {k0:3.1f}: {alive:3d} survivors, L2 risk {risk:.4f}")

# pointwise look at the fit near the mode and in the tail
grid = tn.uniform_grid(8, 1)
fitted = est.evaluate(grid)
truth = wn.derivative(m, grid[:, 0])
print("\npointwise comparison")
print(f"  {'theta':>7} {'estimate':>10} {'truth':>10}")
for t, a, b in zip(grid[:, 0], fitted, truth):
    print(f"  {t:7.4f} {a:10.4f} {b:10.4f}")
