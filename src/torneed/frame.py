"""Needlet frames on the torus: window, cubature, transforms, sequence norms.

A frame at scale B > 1 holds one level per resolution j. Level j couples the
frequency shell B**(j-1) < |l| < B**(j+1) with a uniform cubature grid that
integrates every product of two shell frequencies exactly, which is what makes
the system a tight frame on zero-mean functions:

    psi_jk(theta) = sqrt(lambda_j) * sum_l b(|l|/B**j) conj(e_l(xi_jk)) e_l(theta)

Derivatives of needlets stay inside the same shell; they only pick up the
per-frequency multiplier prod_i (i*l_i)**m_i.

Every needlet is a trigonometric polynomial, so every transform goes through
one spectral core on the box |l_i| <= L, L = ceil(B**(j+1)) - 1 the top of the
highest shell in use:

- sample_spectrum sums exp(i l.x) over a point set once for the whole box
  (per-axis phase blocks contracted by a sum or a GEMM); each shell is then a
  gather from it.
- spectrum_values is its adjoint: it evaluates sum_l A_l exp(i l.x) at any
  points, contracting one axis at a time.
- Pixel transforms in both directions are FFTs on the level's cubature cube,
  whose points are xi_k = 2 pi k / N.

Synthesis therefore maps each live level's pixels back to its shell by FFT,
adds every level into one box spectrum and evaluates that spectrum once.
Phase blocks are cut into row blocks of at most PHASE_BLOCK_BYTES each.

The frame cannot represent the mean (the zero frequency is in no shell), so
analysis/synthesis act on the zero-mean part of a function. For derivative
orders m != 0 this is immaterial; for m = 0 density work the known mean
1/(2pi)**d is added back by the caller.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .harmonics import (
    TWO_PI,
    as_multi_index,
    as_points,
    derivative_multiplier,
    eigenvalue,
    frequency_shell,
    wrap_angles,
)

IMAG_RESIDUE_TOL = 1e-9

# bytes of one complex phase block; every row-blocked loop sizes its rows from it
PHASE_BLOCK_BYTES = 1 << 22


def drop_imag(values, tol=IMAG_RESIDUE_TOL, what="evaluation"):
    """Assert the imaginary residue of a nominally real array is tiny, then drop it.

    Raises instead of truncating silently: a large residue means a broken
    conjugate-symmetric sum, not a rounding artifact.
    """
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return np.asarray(values, dtype=float)
    residue = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if residue > tol:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds {tol:g} in {what}")
    return np.ascontiguousarray(values.real)


# Gauss-Legendre rule on [-1, 1]: the ramp integrates the bump over one grid
# cell (or part of one) with it, the moments integrate b^2 over each panel.
# Doubling the nodes or quadrupling the panels moves nothing beyond rounding.
_GL_NODES, _GL_WEIGHTS = leggauss(8)
# equal panels on each side of u = 1 in the moment quadrature
_MOMENT_PANELS = 64


def _bump(t):
    """psi0(t) = exp(-1/(1-t^2)) on (-1, 1), 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / ((1.0 - ti) * (1.0 + ti)))
    return out


def _gauss_legendre(fn, lo, hi):
    """integral of fn over [lo, hi] elementwise (broadcast), by the fixed Gauss-Legendre rule."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[..., None] + half[..., None] * _GL_NODES
    return half * (fn(nodes) @ _GL_WEIGHTS)


class NeedletWindow:
    """Smooth Littlewood-Paley window b supported on [1/B, B].

    Construction: let psi0(t) = exp(-1/(1-t^2)) on (-1, 1) and 0 outside, and
    let Psi be its normalized antiderivative (0 at -1, 1 at +1). The plateau
    function phi equals 1 on [0, 1/B], descends smoothly as
    Psi(1 - 2(t - 1/B) B/(B-1)) on (1/B, 1), and is 0 from 1 on. Then

        b(t) = sqrt(max(phi(t/B) - phi(t), 0)).

    b(c/B**j)^2 telescopes over j, so sum_{j>=0} b(c/B**j)^2 = 1 for every
    c > 1 holds to machine precision: it only needs phi to be exactly 1 and 0
    on its plateaus, not an accurate interior integral.

    Psi is integrated exactly up to rounding: the integral of psi0 over each
    cell of a uniform ramp_nodes grid on [-1, 1] is tabulated once by
    Gauss-Legendre and accumulated, and Psi(u) adds the same rule on the
    partial cell [x_k, u].
    """

    def __init__(self, B, ramp_nodes=4097):
        if B <= 1:
            raise ValueError("scale B must exceed 1")
        self.B = float(B)
        self._grid = np.linspace(-1.0, 1.0, int(ramp_nodes))
        cells = _gauss_legendre(_bump, self._grid[:-1], self._grid[1:])
        self._cumulative = np.concatenate(([0.0], np.cumsum(cells)))
        self._moments: dict[int, float] = {}

    def _smooth_step(self, u):
        u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
        k = np.clip(np.searchsorted(self._grid, u, side="right") - 1, 0, self._grid.size - 2)
        x_k = self._grid[k]
        ramp = self._cumulative[k] + _gauss_legendre(_bump, x_k, u)
        return ramp / self._cumulative[-1]

    def _plateau(self, t):
        t = np.asarray(t, dtype=float)
        B = self.B
        u = 1.0 - 2.0 * (t - 1.0 / B) * B / (B - 1.0)
        val = self._smooth_step(u)
        # exact plateaus; the telescoping partition of unity depends on these
        val = np.where(t <= 1.0 / B, 1.0, val)
        val = np.where(t >= 1.0, 0.0, val)
        return val

    def _squared(self, t):
        """b(t)^2 = max(phi(t/B) - phi(t), 0), elementwise."""
        t = np.asarray(t, dtype=float)
        return np.maximum(self._plateau(t / self.B) - self._plateau(t), 0.0)

    def __call__(self, t):
        out = np.sqrt(self._squared(t))  # max() above clips sub-epsilon negatives
        return float(out) if out.ndim == 0 else out

    def moment(self, q):
        """I_q = integral of u**q b(u)^2 over [1/B, B], cached per q.

        Composite Gauss-Legendre on equal panels of [1/B, 1] and [1, B]; b^2
        is C-infinity on each piece (1 - phi(u) on the first, phi(u/B) on the
        second).
        """
        q = int(q)
        if q < 0:
            raise ValueError("moment order q must be nonnegative")
        if q not in self._moments:
            edges = np.concatenate(
                (
                    np.linspace(1.0 / self.B, 1.0, _MOMENT_PANELS + 1),
                    np.linspace(1.0, self.B, _MOMENT_PANELS + 1)[1:],
                )
            )
            pieces = _gauss_legendre(lambda u: u**q * self._squared(u), edges[:-1], edges[1:])
            self._moments[q] = float(np.sum(pieces))
        return self._moments[q]


def build_window(B):
    """Window function for scale B; see NeedletWindow."""
    return NeedletWindow(B)


def window_moment(window, q):
    """I_q = integral of u**q b(u)^2 over the window support."""
    return window.moment(q)


def uniform_grid(npts, d):
    """Uniform tensor grid on [0, 2pi)^d with npts points per dimension, as (npts**d, d) rows."""
    if npts < 1:
        raise ValueError("grid needs at least one point per dimension")
    axis = np.arange(npts) * (TWO_PI / npts)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


@dataclasses.dataclass(frozen=True)
class CubatureLevel:
    """Uniform cubature exact for all frequency products of one shell."""

    j: int
    npts_per_dim: int
    points: np.ndarray  # (K_j, d)
    weight: float  # common weight lambda_jk = (2pi)^d / K_j

    @property
    def K(self):
        return self.points.shape[0]

    @property
    def weights(self):
        return np.full(self.K, self.weight)


@dataclasses.dataclass(frozen=True)
class _Level:
    j: int
    freqs: np.ndarray  # (nf, d) int64
    bvals: np.ndarray  # (nf,) window values b(|l|/B^j)
    cubature: CubatureLevel


class NeedletFrame:
    """Toroidal needlet system at scale B, dimension d, levels 0..jmax.

    Immutable after construction; shells, window values and cubature grids
    are precomputed per level.
    """

    def __init__(self, B, d, jmax, window=None, max_points=10**8):
        if d < 1:
            raise ValueError("dimension d must be at least 1")
        if jmax < 0:
            raise ValueError("jmax must be nonnegative")
        if window is not None and abs(window.B - B) > 1e-12:
            raise ValueError("window scale does not match frame scale")
        self.B = float(B)
        self.d = int(d)
        self.jmax = int(jmax)
        self.window = window if window is not None else NeedletWindow(B)
        top_n = 2 * math.ceil(self.B ** (self.jmax + 1)) + 1
        if top_n**self.d > max_points:
            raise ValueError(
                f"level {jmax} needs {top_n**self.d} cubature points, above the cap {max_points}"
            )
        self._levels = []
        for j in range(self.jmax + 1):
            freqs = frequency_shell(j, self.B, self.d)
            bvals = np.asarray(self.window(eigenvalue(freqs) / self.B**j), dtype=float)
            npts = 2 * math.ceil(self.B ** (j + 1)) + 1
            pts = uniform_grid(npts, self.d)
            weight = TWO_PI**self.d / pts.shape[0]
            self._levels.append(
                _Level(j, freqs, bvals, CubatureLevel(j, npts, pts, weight))
            )

    def level(self, j):
        if not 0 <= j <= self.jmax:
            raise ValueError(f"level {j} outside 0..{self.jmax}")
        return self._levels[j]

    def shell(self, j):
        return self.level(j).freqs

    def cubature(self, j):
        return self.level(j).cubature

    def window_values(self, j):
        return self.level(j).bvals

    def level_sizes(self):
        return [lev.cubature.K for lev in self._levels]


def build_frame(B, d, jmax, window=None, max_points=10**8):
    """Construct a NeedletFrame; see the class docstring."""
    return NeedletFrame(B, d, jmax, window=window, max_points=max_points)


def block_rows(n, width):
    """Rows per block so that a (rows, width) complex block fits PHASE_BLOCK_BYTES.

    Never below one row, never above n.
    """
    return max(1, min(int(n), PHASE_BLOCK_BYTES // (16 * max(int(width), 1))))


def _cis(angles):
    """exp(i * angles), built from cos and sin of the real array."""
    out = np.empty(np.shape(angles), dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _phases(points, freqs, sign):
    """exp(sign * i * points @ freqs.T), evaluated in row blocks.

    Blocking bounds the temporaries; each block is a plain vectorized numpy
    op, so results depend neither on the block size nor on the thread count,
    which the reproducibility contract needs.
    """
    n = points.shape[0]
    out = np.empty((n, freqs.shape[0]), dtype=complex)
    ft = sign * freqs.T.astype(float)
    rows = block_rows(n, freqs.shape[0])
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        out[start:stop] = _cis(points[start:stop] @ ft)
    return out


def box_half_width(B, j):
    """L = ceil(B**(j+1)) - 1: every shell up to level j lies in the box |l_i| <= L."""
    return math.ceil(B ** (j + 1)) - 1


def spectrum_block_shape(n, d, L):
    """(rows, width) of the widest phase block the spectral core forms for n points.

    The width is that of the leading-axes block: 2L+1 columns per axis
    before the last one (2L+1 in all for d = 1).
    """
    width = (2 * L + 1) ** max(d - 1, 1)
    return block_rows(n, width), width


def sample_spectrum(points, L):
    """Type-1 sum S_l = sum_i exp(i l . x_i) on the box |l_i| <= L.

    Returns a complex array of shape (2L+1,)*d indexed by l + L. Per row
    block, each coordinate gets one phase block exp(i x_a l_a); they are
    contracted by a column sum in d=1, one GEMM in d=2, and an outer product
    of the leading axes followed by a GEMM in d>=3. The last axis runs over
    l_d >= 0 only: the points are real, so S_{-l} = conj(S_l) supplies the rest.
    Blocks are reduced in a fixed order, so the sum does not depend on the
    thread count.
    """
    n, d = points.shape
    W = 2 * L + 1
    freqs = np.arange(-L, L + 1, dtype=float)
    half = freqs[L:]
    S = np.zeros((W ** (d - 1), L + 1), dtype=complex)
    rows, _ = spectrum_block_shape(n, d, L)
    for start in range(0, n, rows):
        block = points[start : start + rows]
        last = _cis(np.multiply.outer(block[:, -1], half))
        if d == 1:
            S[0] += last.sum(axis=0)
            continue
        lead = _cis(np.multiply.outer(block[:, 0], freqs))
        for a in range(1, d - 1):
            axis = _cis(np.multiply.outer(block[:, a], freqs))
            lead = (lead[:, :, None] * axis[:, None, :]).reshape(block.shape[0], -1)
        S += lead.T @ last
    S = S.reshape((W,) * (d - 1) + (L + 1,))
    box = np.empty((W,) * d, dtype=complex)
    box[..., L:] = S
    box[..., :L] = np.conj(np.flip(S)[..., :L])
    return box


def spectrum_values(box, points):
    """Adjoint of sample_spectrum: sum_l box[l + L] exp(i l . x) at every row x of points.

    Contracts one axis at a time: a GEMM against the first axis, then a
    row-wise product and sum per remaining axis. Returns a complex (n,) array.
    """
    d = box.ndim
    W = box.shape[0]
    L = (W - 1) // 2
    freqs = np.arange(-L, L + 1, dtype=float)
    n = points.shape[0]
    flat = box.reshape(W, -1)
    out = np.empty(n, dtype=complex)
    rows, _ = spectrum_block_shape(n, d, L)
    for start in range(0, n, rows):
        block = points[start : start + rows]
        r = block.shape[0]
        acc = _cis(np.multiply.outer(block[:, 0], freqs)) @ flat
        for a in range(1, d):
            axis = _cis(np.multiply.outer(block[:, a], freqs))
            acc = np.einsum("rw,rwk->rk", axis, acc.reshape(r, W, -1))
        out[start : start + r] = acc.reshape(r)
    return out


def box_index(freqs, L):
    """Index tuple of the shell frequencies in a (2L+1,)*d box spectrum."""
    return tuple(freqs[:, i] + L for i in range(freqs.shape[1]))


def _cube_index(freqs, npts):
    """Index tuple of the frequencies in an npts**d FFT cube (l mod npts per axis).

    Residues are distinct because per-coordinate frequencies stay below npts/2.
    """
    return tuple(np.mod(freqs[:, i], npts) for i in range(freqs.shape[1]))


def _pixel_transform(level, amplitudes, sign=-1.0):
    """Shell to pixels: sum_l amplitudes_l * exp(sign * i * <l, xi_k>) at every cubature point k.

    Fills the shell amplitudes into the level's N**d cube at l mod N and runs
    fftn (sign -1) or N**d * ifftn (sign +1).
    """
    npts = level.cubature.npts_per_dim
    cube = np.zeros((npts,) * level.freqs.shape[1], dtype=complex)
    cube[_cube_index(level.freqs, npts)] = amplitudes
    if sign < 0:
        return np.fft.fftn(cube).reshape(-1)
    return (np.fft.ifftn(cube) * cube.size).reshape(-1)


def _shell_transform(level, pixels):
    """Pixels to shell: sum_k pixels_k * exp(-i <l, xi_k>) for every shell frequency l."""
    npts = level.cubature.npts_per_dim
    spectrum = np.fft.fftn(np.reshape(pixels, (npts,) * level.freqs.shape[1]))
    return spectrum[_cube_index(level.freqs, npts)]


@dataclasses.dataclass(eq=False)
class CoefficientArray:
    """Per-level needlet coefficients for one derivative order.

    levels[j] is the length-K_j float array of coefficients at level j.
    provenance records how the values were obtained: "exact-quadrature"
    for analysis of a known function, "empirical" for sample averages.
    """

    m: tuple
    levels: list
    provenance: str

    def __post_init__(self):
        self.m = tuple(int(v) for v in self.m)
        self.levels = [np.asarray(lv, dtype=float) for lv in self.levels]
        if self.provenance not in ("exact-quadrature", "empirical"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        for lv in self.levels:
            if lv.ndim != 1 or not np.all(np.isfinite(lv)):
                raise ValueError("coefficient levels must be 1-d finite arrays")

    @property
    def njlevels(self):
        return len(self.levels)

    def level(self, j):
        return self.levels[j]

    def total_count(self):
        return int(sum(lv.size for lv in self.levels))

    def scaled(self, c):
        return CoefficientArray(self.m, [c * lv for lv in self.levels], self.provenance)

    def to_csv(self, path):
        """Write `j,k,value` rows, levels ascending, k ascending, 17 significant digits."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("j,k,value\n")
            for j, lv in enumerate(self.levels):
                for k, val in enumerate(lv):
                    fh.write(f"{j},{k},{val:.17g}\n")

    @classmethod
    def from_csv(cls, path, m, provenance):
        """Read `j,k,value` rows in any order; a level missing or repeating a k is an error."""
        by_level = {}
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "j,k,value":
                raise ValueError(f"unexpected coefficient CSV header {header!r} in {path}")
            for line in fh:
                if not line.strip():
                    continue
                j_s, k_s, v_s = line.strip().split(",")
                by_level.setdefault(int(j_s), []).append((int(k_s), float(v_s)))
        return cls(m, [columns[0] for columns in dense_levels(path, by_level)], provenance)


def dense_levels(path, by_level):
    """Levels 0..max j of CSV rows grouped as {j: [(k, value, ...), ...]}.

    Returns one entry per level: a float array per value column, sorted by
    k. Every level must hold each k = 0..K-1 exactly once with K >= 1; a
    negative j, an empty level, or a missing, repeated or negative k is an
    error that names the level.
    """
    if min(by_level, default=0) < 0:
        raise ValueError(f"{path}: negative level j={min(by_level)}")
    levels = []
    for j in range(max(by_level, default=-1) + 1):
        rows = sorted(by_level.get(j, []), key=lambda row: row[0])
        if not rows:
            raise ValueError(f"{path}: level {j} has no rows")
        for expected, (k, *_) in enumerate(rows):
            if k > expected:
                raise ValueError(f"{path}: level {j} is missing k={expected}")
            if k < 0:
                raise ValueError(f"{path}: level {j} has negative k={k}")
            if k < expected:
                raise ValueError(f"{path}: level {j} repeats k={k}")
        levels.append(np.array([row[1:] for row in rows], dtype=float).T.copy())
    return levels


def check_structure(frame, coeffs):
    """Reject coefficient arrays whose level sizes do not match the frame."""
    if coeffs.njlevels > frame.jmax + 1:
        raise ValueError(
            f"coefficients hold {coeffs.njlevels} levels but the frame stops at jmax={frame.jmax}"
        )
    for j, lv in enumerate(coeffs.levels):
        K = frame.cubature(j).K
        if lv.size != K:
            raise ValueError(f"level {j} holds {lv.size} coefficients, frame cubature has {K}")


def needlet_eval(frame, j, k, theta, m=None):
    """Evaluate the derivative needlet psi^(m)_{j,k} at one or more points.

    Returns a float for a single point, else a 1-d array. The sum over the
    shell is conjugate-symmetric, hence real; the imaginary residue is
    checked against 1e-9 and dropped.
    """
    lev = frame.level(j)
    K = lev.cubature.K
    if not 0 <= k < K:
        raise ValueError(f"pixel index {k} outside 0..{K - 1} at level {j}")
    m = as_multi_index(m, frame.d)
    pts = as_points(theta, frame.d)
    single = pts.shape[0] == 1 and np.ndim(theta) <= 1
    mult = np.atleast_1d(derivative_multiplier(lev.freqs, m))
    xi = lev.cubature.points[k]
    # sqrt(lambda) * sum_l b_l mult_l conj(e_l(xi)) e_l(theta), with the
    # (2pi)^(-d/2) of each basis factor folded into one constant
    amp = lev.bvals * mult * np.exp(-1j * (lev.freqs.astype(float) @ xi))
    scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
    vals = scale * (_phases(pts, lev.freqs, +1.0) @ amp)
    out = drop_imag(vals, what=f"needlet ({j},{k}) evaluation")
    return float(out[0]) if single else out


def needlet_matrix(frame, j, theta, m=None):
    """Matrix [t, k] = psi^(m)_{j,k}(theta_t) for all pixels k of level j."""
    lev = frame.level(j)
    m = as_multi_index(m, frame.d)
    pts = as_points(theta, frame.d)
    mult = np.atleast_1d(derivative_multiplier(lev.freqs, m))
    scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
    out = np.empty((pts.shape[0], lev.cubature.K))
    centers = _phases(lev.cubature.points, lev.freqs, -1.0)  # (K, nf)
    rows = block_rows(pts.shape[0], max(lev.freqs.shape[0], lev.cubature.K))
    for start in range(0, pts.shape[0], rows):
        stop = min(start + rows, pts.shape[0])
        block = _phases(pts[start:stop], lev.freqs, +1.0) * (lev.bvals * mult)
        out[start:stop] = drop_imag(
            scale * (block @ centers.T), what=f"needlet matrix at level {j}"
        )
    return out


def _fourier_coefficients(frame, f, jmax, band_limit=None, grid_points=None):
    """Raw Fourier coefficients a_l = <f, e_l> for every shell frequency up to jmax.

    FFT quadrature on a uniform grid; exact once the grid resolves the shell
    band plus the declared band of f. Returns one array per level, aligned
    with the shells.
    """
    band = int(band_limit) if band_limit else 0
    min_pts = 2 * math.ceil(frame.B ** (jmax + 1)) + 1
    npts = grid_points if grid_points is not None else min_pts + 2 * band
    if npts < min_pts:
        raise ValueError(f"analysis grid {npts} cannot resolve level {jmax} (needs >= {min_pts})")
    grid = uniform_grid(npts, frame.d)
    fvals = np.asarray(f(grid[:, 0] if frame.d == 1 else grid), dtype=float)
    if fvals.shape != (grid.shape[0],):
        raise ValueError("function evaluation returned a wrong shape")
    if not np.all(np.isfinite(fvals)):
        raise ValueError("function evaluation produced non-finite values")
    norm = (TWO_PI / npts) ** frame.d * TWO_PI ** (-frame.d / 2.0)
    spectrum = np.fft.fftn(fvals.reshape((npts,) * frame.d))
    return [norm * spectrum[_cube_index(frame.shell(j), npts)] for j in range(jmax + 1)]


def analyze(frame, f, m=None, jmax=None, band_limit=None, grid_points=None):
    """Needlet coefficients of the m-th derivative of f, by exact quadrature.

    Integration by parts moves the derivative onto the needlet, so only f
    itself is evaluated:

        beta^(m)_{j,k} = (-1)^|m| <f, psi^(m)_{j,k}>
                       = sqrt(lambda_j) sum_l b_l mult_l(m) a_l e_l(xi_jk)

    where a_l are the Fourier coefficients of f. Accepts a plain callable or
    an object with a `pdf` attribute (a test density); a `band_limit`
    attribute, when present, widens the quadrature grid accordingly.
    """
    if jmax is None:
        jmax = frame.jmax
    if jmax > frame.jmax:
        raise ValueError(f"jmax {jmax} exceeds frame jmax {frame.jmax}")
    m = as_multi_index(m, frame.d)
    fn = f.pdf if hasattr(f, "pdf") else f
    if band_limit is None:
        band_limit = getattr(f, "band_limit", None)
    coeffs_per_level = _fourier_coefficients(
        frame, fn, jmax, band_limit=band_limit, grid_points=grid_points
    )
    levels = []
    for j in range(jmax + 1):
        lev = frame.level(j)
        mult = np.atleast_1d(derivative_multiplier(lev.freqs, m))
        # beta^(m)_{j,k} = sqrt(lambda) sum_l b_l mult_l a_l e_l(xi_jk); the
        # (-1)^|m| of the integration by parts cancels against the conjugated
        # multiplier, so no sign factor remains here
        amp = lev.bvals * mult * coeffs_per_level[j]
        raw = _pixel_transform(lev, amp, sign=+1.0)
        scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d / 2.0)
        levels.append(drop_imag(scale * raw, what=f"analysis coefficients at level {j}"))
    return CoefficientArray(m, levels, "exact-quadrature")


def synthesize(frame, coeffs, grid):
    """sum_{j,k} c_{j,k} psi_{j,k}(theta) over the grid points.

    Synthesis always uses underived needlets; derivative content lives in the
    coefficients. grid is an (n, d) array (or anything `as_points` accepts),
    on or off any uniform grid. Each level with a nonzero coefficient maps its
    pixels to shell amplitudes T_l = sum_k c_k exp(-i l.xi_k) by FFT, adds
    sqrt(lambda_j) (2pi)^-d b_l T_l into one box spectrum, and that spectrum
    is evaluated once at the points.
    """
    check_structure(frame, coeffs)
    pts = as_points(grid, frame.d)
    live = [j for j, cvec in enumerate(coeffs.levels) if np.any(cvec)]
    if not live:
        return np.zeros(pts.shape[0])
    L = box_half_width(frame.B, live[-1])
    box = np.zeros((2 * L + 1,) * frame.d, dtype=complex)
    for j in live:
        lev = frame.level(j)
        scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
        T = _shell_transform(lev, coeffs.levels[j])
        box[box_index(lev.freqs, L)] += scale * lev.bvals * T
    return drop_imag(spectrum_values(box, pts), what="synthesis")


def besov_sequence_norm(coeffs, s, r, q, B, d):
    """Sequence-space Besov norm of a coefficient array.

    l^q over levels j of B**(j*(s + d*(1/2 - 1/r))) times the l^r norm over k
    of level j. r or q equal to inf take suprema.
    """
    if r < 1 or q < 1:
        raise ValueError("r and q must be at least 1 (inf allowed)")
    level_terms = []
    for j, lv in enumerate(coeffs.levels):
        if math.isinf(r):
            lnorm = float(np.max(np.abs(lv))) if lv.size else 0.0
            rexp = 0.0
        else:
            lnorm = float(np.sum(np.abs(lv) ** r) ** (1.0 / r))
            rexp = 1.0 / r
        level_terms.append(B ** (j * (s + d * (0.5 - rexp))) * lnorm)
    if not level_terms:
        return 0.0
    terms = np.asarray(level_terms)
    if math.isinf(q):
        return float(np.max(terms))
    return float(np.sum(terms**q) ** (1.0 / q))


def needlet_l2_norm(frame, j, m=None):
    """Exact L2 norm of psi^(m)_{j,k} (the same for every k at level j).

    By orthonormality of the basis the squared norm is
    lambda_j (2pi)^-d sum_l b_l^2 prod_i l_i^(2 m_i).
    """
    lev = frame.level(j)
    m = as_multi_index(m, frame.d)
    mult2 = np.prod(lev.freqs.astype(float) ** (2 * np.asarray(m)), axis=-1)
    total = float(np.sum(lev.bvals**2 * mult2))
    return math.sqrt(lev.cubature.weight * TWO_PI ** (-frame.d) * total)


def needlet_lp_norm(frame, j, m=None, p=2, grid_per_dim=None):
    """Quadrature L^p norm of psi^(m)_{j,k} on a uniform grid (k-independent)."""
    if grid_per_dim is None:
        grid_per_dim = max(64, 8 * math.ceil(frame.B ** (j + 1)))
    grid = uniform_grid(grid_per_dim, frame.d)
    vals = np.abs(needlet_eval(frame, j, 0, grid, m=m))
    cell = (TWO_PI / grid_per_dim) ** frame.d
    if math.isinf(p):
        return float(np.max(vals))
    return float((cell * np.sum(vals**p)) ** (1.0 / p))


@dataclasses.dataclass(frozen=True)
class LocalizationProfile:
    """Observed decay of one needlet against the quasi-exponential envelope."""

    j: int
    k: int
    m: tuple
    exponent: float
    distances: np.ndarray
    values: np.ndarray
    constant: float


def localization_profile(frame, j, k, m=None, exponent=3.0, samples=2048):
    """Fit the smallest c with |psi^(m)| <= c B^{j(|m|+d/2)} / (1 + B^j dist)^exponent.

    Samples along each coordinate axis ray from the needlet's own center plus
    the main diagonal, out to the torus injectivity radius.
    """
    m = as_multi_index(m, frame.d)
    lev = frame.level(j)
    xi = lev.cubature.points[k]
    directions = [np.eye(frame.d)[i] for i in range(frame.d)]
    if frame.d > 1:
        directions.append(np.ones(frame.d) / math.sqrt(frame.d))
    radii = np.linspace(0.0, np.pi, max(2, samples // len(directions)))
    dists, vals = [], []
    for direction in directions:
        pts = wrap_angles(xi[None, :] + radii[:, None] * direction[None, :])
        vals.append(np.abs(needlet_eval(frame, j, k, pts, m=m)))
        dists.append(radii)
    dists = np.concatenate(dists)
    vals = np.concatenate(vals)
    scale = frame.B ** (j * (sum(m) + frame.d / 2.0))
    ratios = vals * (1.0 + frame.B**j * dists) ** exponent / scale
    return LocalizationProfile(j, k, m, float(exponent), dists, vals, float(np.max(ratios)))
