"""Fourier basis arithmetic on the d-dimensional torus.

Frequency vectors are rows of integer arrays of shape (n, d). Points on the
torus are angle arrays in radians; constructors reduce arbitrary reals to
[0, 2pi), and all arithmetic tolerates unreduced input.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angles(theta):
    """Reduce angles to [0, 2pi) in a new array; shape is preserved.

    Equals np.mod(theta, 2pi) bit for bit, except that a tiny negative
    angle, which np.mod rounds up to 2pi, gives 0. For |x| < 2pi np.mod is
    exactly x + 2pi below 0 and x + 0.0 otherwise (-0.0 becomes 0.0): one
    add, no division. When any entry is outside that (|x| >= 2pi, NaN,
    inf) or its sum rounds to 2pi, the whole array goes through np.mod
    twice, in the result, with no temporary. theta itself is only read.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape)
    # (x < 0) * 2pi + x in out, with no temporary of theta's size
    np.less(theta, 0.0, out=out)
    out *= TWO_PI
    out += theta
    # an entry lands in [0, 2pi) exactly when the add reduced it as np.mod does
    if out.size and not (out.min() >= 0.0 and out.max() < TWO_PI):
        np.mod(theta, TWO_PI, out=out)
        # mod of a tiny negative float can round up to 2pi itself; a second
        # mod maps that to 0 and leaves [0, 2pi) alone
        np.mod(out, TWO_PI, out=out)
    return out


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
    squares = np.arange(-top, top + 1, dtype=np.int64) ** 2
    # |l|^2 over the (2top+1)^d cube by outer sums of the per-axis squares:
    # exact integers, and one int64 cube instead of d coordinate cubes
    sq = squares
    for _ in range(d - 1):
        sq = np.add.outer(sq, squares)
    keep = (sq > B ** (2 * (j - 1))) & (sq < B ** (2 * (j + 1)))
    # nonzero walks the cube in C order, which is lexicographic in l; index i is l = i - top
    shell = np.column_stack(np.nonzero(keep))
    shell -= top
    return shell


def derivative_multiplier(freqs, m):
    """Factor turning e_l into its m-th partial derivative: prod_i (i*l_i)**m_i.

    Differentiating e_l(theta) = (2pi)**(-d/2) exp(i sum_i l_i theta_i) brings
    down one factor of i*l_i per derivative order in coordinate i.
    Accepts a single d-vector (returns a complex scalar) or an (nf, d) array
    (returns an (nf,) complex array).

    Computed as i^|m| prod_i l_i^m_i: the real power goes into the real or
    the imaginary part by |m| mod 4, and the other part is exactly +0.0.
    numpy's complex power goes through exp and log from exponent 100 on,
    which leaves a spurious part of about 1e-15 relative beside an exact one.
    """
    arr = np.asarray(freqs, dtype=np.int64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    m = as_multi_index(m, arr.shape[1])
    power = np.prod(arr.astype(float) ** np.asarray(m, dtype=float), axis=-1)
    out = np.zeros(power.shape, dtype=complex)
    # i^|m| cycles through 1, i, -1, -i
    part = out.imag if sum(m) % 2 else out.real
    np.multiply(power, -1.0 if sum(m) % 4 >= 2 else 1.0, out=part)
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
