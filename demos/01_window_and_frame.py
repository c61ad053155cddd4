"""Window function and frame layout.

Walks through the two ingredients everything else builds on: the smooth
Littlewood-Paley window b, whose squared dilates sum to 1, and the per-level
cubature grids that turn the continuous frame into finitely many needlets.
"""

import numpy as np

import torneed as tn

B = 2.0

window = tn.NeedletWindow(B)

# b lives on [1/B, B], rises from 0 to 1, and equals 1 exactly at t = 1
ts = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
print("window values")
for t in ts:
    print(f"  b({t:4.2f}) = {window(t):.6f}")

# partition of unity: sum_j b(t / B^j)^2 telescopes to 1 for any t >= 1
print("\npartition of unity")
for t in (1.0, 1.7, 2.4, 5.3, 11.0):
    total = sum(window(t / B**j) ** 2 for j in range(-1, 12))
    print(f"  t={t:5.2f}  sum_j b(t/B^j)^2 = {total:.15f}")

# the moments I_q = integral of b(t)^2 t^q dt drive threshold calibration;
# I_0 has the closed form (B^2 - 1) / (2B)
print("\nwindow moments")
for q in range(3):
    print(f"  I_{q} = {window.moment(q):.12f}")
print(f"  closed form for I_0: {(B**2 - 1) / (2 * B):.12f}")

# frame layout: level j draws on frequencies B^(j-1) < |l| < B^(j+1) and
# anchors one needlet at each cubature node
frame = tn.NeedletFrame(B, 1, 5)
print("\nper-level layout (d=1)")
print(f"  {'j':>2} {'frequencies':>12} {'needlets':>9} {'weight':>10}")
for j in range(frame.jmax + 1):
    cub = frame.cubature(j)
    print(f"  {j:>2} {frame.shell(j).shape[0]:>12} {cub.K:>9} {cub.weight:>10.6f}")

# in d=2 the shells are euclidean annuli, so their sizes grow like B^(2j)
frame2 = tn.NeedletFrame(B, 2, 3)
print("\nper-level layout (d=2)")
for j in range(frame2.jmax + 1):
    print(f"  j={j}: {frame2.shell(j).shape[0]:>4} frequencies, {frame2.cubature(j).K:>5} needlets")
