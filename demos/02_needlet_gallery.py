"""A close look at individual needlets.

Evaluates a few needlets and their derivatives pointwise, and measures the
two properties the estimator relies on: localization (fast decay away from
the center) and the growth of norms with the level.
"""

import numpy as np

import torneed as tn
from torneed.harmonics import TWO_PI, geodesic_distance

frame = tn.NeedletFrame(2.0, 1, 5)

# a needlet is real, peaks at its own cubature node, and integrates to zero
j, k = 3, 7
center = frame.cubature(j).points[k, 0]
print(f"needlet (j={j}, k={k}) centered at theta = {center:.4f}")
for offset in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
    val = tn.needlet_eval(frame, j, k, center + offset)
    print(f"  psi(center + {offset:4.2f}) = {val:10.4f}")

grid = tn.uniform_grid(1024, 1)
vals = tn.needlet_eval(frame, j, k, grid)
print(f"  integral over the circle = {np.mean(vals) * TWO_PI:.2e}")

# derivatives: one call per order, exact up to roundoff
theta = center + 0.03
for order in (1, 2):
    h = 1e-5 if order == 1 else 1e-4
    lo = tn.needlet_eval(frame, j, k, theta - h)
    mid = tn.needlet_eval(frame, j, k, theta)
    hi = tn.needlet_eval(frame, j, k, theta + h)
    fd = (hi - lo) / (2 * h) if order == 1 else (hi - 2 * mid + lo) / h**2
    exact = tn.needlet_eval(frame, j, k, theta, m=(order,))
    print(f"order {order}: exact {exact:12.4f}  finite difference {fd:12.4f}")

# localization: |psi(theta)| * (1 + B^j dist)^3 stays bounded, so the mass
# concentrates in a band of width ~ B^-j around the center
print("\nlocalization at increasing distance")
dist = geodesic_distance(grid, [center])
for radius in (0.1, 0.3, 1.0, 3.0):
    mask = dist > radius / 2.0**j
    tail = np.max(np.abs(vals[mask])) if mask.any() else 0.0
    print(f"  sup |psi| beyond {radius:4.1f} * B^-j : {tail:10.4f}")
profile = tn.localization_profile(frame, j, k, exponent=3.0)
print(f"  decay constant sup |psi| (1 + B^j dist)^3 = {profile.constant:.2f}")

# norms grow like B^(j(|m| + d/2)): each derivative costs one power of B^j
print("\nnorm growth across levels")
deriv_label = "||psi'||_2"
print(f"  {'j':>2} {'||psi||_2':>12} {deriv_label:>12} {'ratio':>8}")
for lvl in range(frame.jmax + 1):
    n0 = tn.needlet_l2_norm(frame, lvl)
    n1 = tn.needlet_l2_norm(frame, lvl, m=(1,))
    print(f"  {lvl:>2} {n0:>12.4f} {n1:>12.4f} {n1 / n0:>8.2f}")
