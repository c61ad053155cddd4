"""Direct-sum reference transforms, used only by the tests.

Each function writes the defining sum out as one dense exp(i l.x) matrix per
level, with no FFT, no box spectrum and no symmetry shortcut. They are slow
and memory-hungry on purpose: the spectral core in torneed.frame is checked
against them on small inputs.
"""

import math

import numpy as np

from torneed.frame import CoefficientArray, uniform_grid
from torneed.harmonics import (
    TWO_PI,
    as_multi_index,
    as_points,
    derivative_multiplier,
    wrap_angles,
)


def phases(points, freqs, sign):
    """exp(sign * i * points @ freqs.T) as one dense matrix."""
    return np.exp(1j * sign * (np.asarray(points, dtype=float) @ freqs.T.astype(float)))


def pixel_transform(level, amplitudes, sign):
    """sum_l amplitudes_l exp(sign i <l, xi_k>) at every cubature point k."""
    return phases(level.cubature.points, level.freqs, sign) @ amplitudes


def needlet_matrix(frame, j, points, m=None):
    """[t, k] = psi^(m)_{j,k}(points_t), with both phase factors as dense matrices."""
    lev = frame.level(j)
    amp = lev.bvals * np.atleast_1d(derivative_multiplier(lev.freqs, as_multi_index(m, frame.d)))
    scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
    centers = phases(lev.cubature.points, lev.freqs, -1.0)
    return scale * (phases(points, lev.freqs, +1.0) * amp) @ centers.T


def fourier_coefficients(frame, f, jmax, npts):
    """a_l = <f, e_l> for every shell frequency up to jmax, by a direct quadrature sum."""
    grid = uniform_grid(npts, frame.d)
    fvals = np.asarray(f(grid[:, 0] if frame.d == 1 else grid), dtype=float)
    norm = (TWO_PI / npts) ** frame.d * TWO_PI ** (-frame.d / 2.0)
    return [norm * (phases(grid, frame.shell(j), -1.0).T @ fvals) for j in range(jmax + 1)]


def analyze(frame, f, m=None, band_limit=0):
    """Exact-quadrature needlet coefficients of the m-th derivative of f, levels 0..jmax."""
    m = as_multi_index(m, frame.d)
    npts = 2 * math.ceil(frame.B ** (frame.jmax + 1)) + 1 + 2 * int(band_limit)
    a = fourier_coefficients(frame, f, frame.jmax, npts)
    levels = []
    for j in range(frame.jmax + 1):
        lev = frame.level(j)
        amp = lev.bvals * np.atleast_1d(derivative_multiplier(lev.freqs, m)) * a[j]
        scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d / 2.0)
        levels.append((scale * pixel_transform(lev, amp, +1.0)).real)
    return CoefficientArray(m, levels)


def empirical_coefficients(frame, samples, jmax, m=None):
    """((-1)^|m| / n) sum_i psi^(m)_{j,k}(X_i), one dense sample matrix per level."""
    m = as_multi_index(m, frame.d)
    X = wrap_angles(as_points(samples, frame.d))
    sign = (-1.0) ** sum(m)
    levels = []
    for j in range(jmax + 1):
        lev = frame.level(j)
        S = phases(X, lev.freqs, +1.0).sum(axis=0)
        amp = lev.bvals * np.atleast_1d(derivative_multiplier(lev.freqs, m)) * S
        scale = sign / X.shape[0] * math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
        levels.append((scale * pixel_transform(lev, amp, -1.0)).real)
    return CoefficientArray(m, levels)


def synthesize(frame, coeffs, grid):
    """sum_{j,k} c_{j,k} psi_{j,k}(theta), level by level with dense matrices."""
    pts = as_points(grid, frame.d)
    out = np.zeros(pts.shape[0], dtype=complex)
    for j, cvec in enumerate(coeffs.levels):
        lev = frame.level(j)
        T = phases(lev.cubature.points, lev.freqs, -1.0).T @ cvec
        scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
        out += scale * (phases(pts, lev.freqs, +1.0) @ (lev.bvals * T))
    return out.real
