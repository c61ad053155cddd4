"""Analysis and synthesis round trips.

The needlet system is a tight frame on zero-mean functions: analysis
coefficients conserve L2 energy, and synthesizing them reproduces the
function minus its mean. Both identities are checked numerically here, along
with the integration-by-parts route to derivative coefficients.
"""

import numpy as np

import torneed as tn
from torneed.harmonics import TWO_PI

frame = tn.NeedletFrame(2.0, 1, 3)
grid = tn.uniform_grid(512, 1)

# energy conservation: for f = cos, ||f||^2 = pi and the coefficient energy
# must match it exactly
coeffs = tn.analyze(frame, np.cos, band_limit=1)
energy = sum(float(np.sum(lv**2)) for lv in coeffs.levels)
print(f"coefficient energy of cos : {energy:.15f}")
print(f"pi                        : {np.pi:.15f}")

# round trip on a random band-limited function; levels <= 3 capture
# frequencies up to B^3 = 8
rng = np.random.default_rng(7)
amps_c, amps_s = rng.normal(size=8), rng.normal(size=8)
shift = rng.normal()


def f(theta):
    th = np.asarray(theta, dtype=float)
    ls = np.arange(1, 9)
    return shift + np.cos(np.outer(th, ls)) @ amps_c + np.sin(np.outer(th, ls)) @ amps_s


coeffs = tn.analyze(frame, f, band_limit=8)
rebuilt = tn.synthesize(frame, coeffs, grid)
target = f(grid[:, 0]) - shift
print(f"\nround trip sup error      : {np.max(np.abs(rebuilt - target)):.2e}")
print(f"mean removed              : {shift:.4f} (synthesis sees only the zero-mean part)")

# derivative coefficients come from the function itself: integration by
# parts moves the derivative onto the needlet, no differentiation of f needed
wn = tn.wrapped_normal(1.0)
plain = tn.analyze(frame, wn)
derived = tn.analyze(frame, wn, m=(1,))
lhs = tn.synthesize(frame, derived, grid)
fd = np.gradient(wn.pdf(grid[:, 0]), grid[:, 0], edge_order=2)
print(f"\nsynthesized f' vs numerical gradient, sup error: {np.max(np.abs(lhs - fd)):.2e}")

# the two-dimensional torus works the same way
frame2 = tn.NeedletFrame(2.0, 2, 2)
grid2 = tn.uniform_grid(48, 2)


def g(theta):
    return np.cos(theta[:, 0]) * np.sin(theta[:, 1])


coeffs2 = tn.analyze(frame2, g, band_limit=1)
rebuilt2 = tn.synthesize(frame2, coeffs2, grid2)
print(f"d=2 round trip sup error  : {np.max(np.abs(rebuilt2 - g(grid2))):.2e}")
energy2 = sum(float(np.sum(lv**2)) for lv in coeffs2.levels)
print(f"d=2 energy of cos*sin     : {energy2:.12f}  (exact: {np.pi**2:.12f})")
