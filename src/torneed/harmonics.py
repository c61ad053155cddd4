"""Fourier basis arithmetic on the d-dimensional torus.

Frequency vectors are rows of integer arrays of shape (n, d). Points on the
torus are angle arrays in radians; constructors reduce arbitrary reals to
[0, 2pi), and all arithmetic tolerates unreduced input.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angles(theta):
    """Reduce angles to [0, 2pi); shape is preserved.

    Equals np.mod(theta, 2pi) bit for bit, except that a tiny negative
    angle, which np.mod rounds up to 2pi, gives 0. For |x| < 2pi np.mod is
    exactly x + 2pi below 0 and x + 0.0 otherwise (-0.0 becomes 0.0): one
    add, no division. Every other entry (|x| >= 2pi, NaN, inf) and every
    sum that rounds to 2pi goes through np.mod.
    """
    theta = np.asarray(theta, dtype=float)
    flat = theta.reshape(-1)
    out = (flat < 0.0) * TWO_PI
    out += flat
    # an entry lands in [0, 2pi) exactly when the add reduced it as np.mod does
    if out.size and not (out.min() >= 0.0 and out.max() < TWO_PI):
        redo = ~((out >= 0.0) & (out < TWO_PI))
        again = np.mod(flat[redo], TWO_PI)
        # mod of a tiny negative float can round up to 2pi itself
        again[again >= TWO_PI] = 0.0
        out[redo] = again
    return out.reshape(theta.shape)


def as_points(theta, d):
    """Coerce input to an (n, d) float array of torus points.

    Accepts a scalar (d=1), a 1-d array of n angles (d=1), a single
    d-vector (d>1), or an (n, d) array.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1) if d == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"expected points with {d} coordinates, got shape {np.shape(theta)}")
    return arr


def as_multi_index(m, d):
    """Normalize a derivative multi-index to a tuple of d nonnegative ints.

    None means the zero multi-index; a bare int is accepted when d == 1.
    """
    if m is None:
        return (0,) * d
    if isinstance(m, (int, np.integer)):
        if d != 1:
            raise ValueError(f"scalar multi-index is ambiguous for d={d}")
        m = (int(m),)
    m = tuple(int(v) for v in m)
    if len(m) != d:
        raise ValueError(f"multi-index {m} does not have {d} entries")
    if any(v < 0 for v in m):
        raise ValueError(f"multi-index {m} has negative entries")
    return m


def eigenvalue(freqs):
    """Euclidean norm of each frequency vector (square root of the Laplacian eigenvalue)."""
    freqs = np.asarray(freqs, dtype=float)
    return np.sqrt(np.sum(freqs**2, axis=-1))


def frequency_shell(j, B, d):
    """Integer frequency vectors l with B**(j-1) < |l|_2 < B**(j+1), both strict.

    Returns an (n, d) int64 array in lexicographic order. The zero vector
    never qualifies because B**(j-1) > 0.
    """
    if B <= 1:
        raise ValueError("scale B must exceed 1")
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    if j < 0:
        raise ValueError("level j must be nonnegative")
    top = int(np.ceil(B ** (j + 1))) - 1
    axis = np.arange(-top, top + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    # compare squared norms: the squares are exact integers
    sq = np.sum(grid.astype(np.int64) ** 2, axis=-1)
    keep = (sq > B ** (2 * (j - 1))) & (sq < B ** (2 * (j + 1)))
    return grid[keep]


def derivative_multiplier(freqs, m):
    """Factor turning e_l into its m-th partial derivative: prod_i (i*l_i)**m_i.

    Differentiating e_l(theta) = (2pi)**(-d/2) exp(i sum_i l_i theta_i) brings
    down one factor of i*l_i per derivative order in coordinate i.
    Accepts a single d-vector (returns a complex scalar) or an (nf, d) array
    (returns an (nf,) complex array).
    """
    arr = np.asarray(freqs, dtype=np.int64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    m = as_multi_index(m, arr.shape[1])
    out = np.prod((1j * arr.astype(complex)) ** np.asarray(m), axis=-1)
    return complex(out[0]) if single else out


def geodesic_distance(theta, theta2):
    """Geodesic distance on the torus: per-coordinate arc length, combined in l2.

    Broadcasts over leading axes; returns a scalar for single points.
    """
    a = wrap_angles(theta)
    b = wrap_angles(theta2)
    delta = np.abs(a - b)
    delta = np.minimum(delta, TWO_PI - delta)
    out = np.sqrt(np.sum(np.atleast_1d(delta) ** 2, axis=-1))
    return float(out) if np.ndim(out) == 0 else out
