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
  (GEMMs of per-axis tables per row block, over the half box l_1 >= 0 in
  d >= 2, the rest by conjugate symmetry); each shell is then a gather
  from it. A replication reduces its sample to this spectrum, and a
  Monte Carlo chunk maps the spectra of all its replications at once
  (estimation's level map, one _level_fft per level over the stack).
- spectrum_values is its adjoint: it evaluates sum_l A_l exp(i l.x) at any
  points, contracting one axis at a time.
- grid_values evaluates the same sum on the uniform grid x_k = 2 pi k / G
  (uniform_grid(G, d)) as a tensor product: one (2L+1, G) phase table,
  built for the half-width of the box it is given, serves every axis,
  contracted against the box one axis at a time; any G >= 1 works, the
  table aliasing frequencies when G < 2L+1.
- Needlets are translates: psi_{j,k}(x) = psi_{j,0}(x - xi_k), and the box
  spectrum of psi_{j,0} (_needlet_box) is evaluated by spectrum_values
  (needlet_eval) or grid_values (needlet_lp_norm).
- Pixel transforms in both directions are FFTs on the level's cubature cube,
  whose points are xi_k = 2 pi k / N, over a whole stack of cubes at once
  (_level_fft); estimation.analyze's quadrature and the truth's DFT on a
  risk grid (bench.truth_spectrum) are one more FFT each. These are the
  only FFTs.

Synthesis (estimation.synthesize, which reads its per-level constants from
a replication plan) therefore has two halves. estimation.synthesis_box
maps each live level's pixels back to its shell by FFT (_level_fft) and
adds every level into one box spectrum; estimation.box_values evaluates a
built box once (_family_values): by grid_values when the points are
exactly uniform_grid(G, d) for some G (same rows, same order, equal
coordinates; checked on every call), by spectrum_values otherwise. A bench
chunk builds one box and every grid risk reads it: p = 2 without
evaluating it, any other p through one box_values on the grid.
R coefficient sets stacked as (R, K_j) per level (the rows of one
replication's estimator, one per threshold rule), or C such families as
(C, R, K_j) (a chunk of Monte Carlo replications), take the same single
pass: one FFT per level over the stack and one box with the rows
trailing, evaluated in chunks of rows that fit PHASE_BLOCK_BYTES on the
band of the stack's top live level. On the grid a band of half-width L'
forms only its own (2L'+1, G) phase table, so dead top levels cost no
table rows, and a row whose own band is narrower gets the bits of that
band from the zero-padded box (measured on OpenBLAS 0.3.31). Coefficient
levels are always views of one flat array of every level side by side
(CoefficientArray.flat). Analysis and the empirical coefficients, which
map shells to pixels through one level map of the replication plan, live
in estimation.

Every phase is read from a per-axis power table (_axis_phases): one
exp(i x) per coordinate (_exp_i), doubling products give exp(i l x) for
l = 0..L, conjugates the negative l; the d=1 sample spectrum reads two
digit tables built the same way (_digit_tables). _exp_i is the only place
the module takes cos/sin of a phase angle, and it takes them without libm:
a 256-entry table exp(2 pi i j/256) built once per process on first use
(_phase_table) times short polynomials in the reduced angle, within 2e-16
of the true value (libm: 5.6e-17) at about half libm's cost; an angle
beyond 2^20, NaN or inf gets np.cos/np.sin. The kernel writes its scratch
into table rows filled after it, so it allocates nothing. Tables are
frequency-major, (2L+1, rows); their error grows about linearly in |l| and
stays below (|l|+1) * 1e-15, below that of cos/sin of the rounded angle l*x.
sample_spectrum and spectrum_values cut their tables into row blocks
that fit PHASE_BLOCK_BYTES; sample_spectrum fills every table of a block
into one buffer (spectrum_buffer), which a Monte Carlo chunk allocates
once and passes to each replication's call, so its pages are faulted in
once per chunk; a call given none allocates its own. That buffer is the
sum of the table heights times the block's rows times 16 bytes. In d >= 2
the first and last axes' tables hold l >= 0 only, (L+1) + (L+1) rows in
d = 2 and (L+1) + (L+1) + W + (L+1) W in d = 3 (W = 2L+1), and the rows
are sized so that the whole buffer fits PHASE_BLOCK_BYTES: 3.91 MiB at
d = 2, L = 15 and n = 8000, one block. In d = 1 the rows are those of a
(2L+1)-wide block, and the q + r digit table rows take less. The blocks'
points come from an array or, one block per call, from a RowStream: a
Monte Carlo replication whose law draws in row order draws each block
into a workspace of one block just before it is reduced, so no sample
needs n rows of memory. grid_values needs one table of G columns, of
2L+1 rows for the box it evaluates.

The frame cannot represent the mean (the zero frequency is in no shell), so
analysis/synthesis act on the zero-mean part of a function. For derivative
orders m != 0 this is immaterial; for m = 0 the estimator adds the mean
1/(2pi)**d of a probability density back (estimation.with_density_mean).

An estimator with J levels uses levels 0..J-1 on a frame with jmax =
max(J-1, 0); min_grid_size(B, J) uniform points per axis resolve it.
size_violations(B, d, J) is the one place that decides whether such a
frame, and the grids evaluated or analyzed with it, may be built at all.

Fixed constants: the window ramp is tabulated on _RAMP_NODES = 4097 nodes
with an 8-node Gauss-Legendre rule per cell, a table that does not depend
on B and is built once per process on first use (_ramp), the window moments
use _MOMENT_PANELS = 64 panels per side of u = 1 and are integrated once per
(B, q) in a process, since frames of one B share one window (_shared_window),
drop_imag refuses an imaginary residue above IMAG_RESIDUE_TOL = 1e-9 times
the largest real magnitude, or 1 if that is smaller (refuse_residue, on
every evaluation path), localization_profile samples 2048 points over its
rays, and needlet_lp_norm integrates level j on the uniform grid of
max(64, 8 ceil(B**(j+1))) points per axis, by grid_values. grid_lp_norm is
the one L^p quadrature on a uniform grid (cell (2pi/G)^d, the maximum at
p = inf): needlet_lp_norm and every bench grid risk but p = 2, which takes
discrete Parseval on the box instead, go through it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

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

# most points a cubature, analysis or evaluation grid may hold, and all of a frame's cubatures
MAX_GRID_POINTS = 10**8

# most levels a frame may hold: at about 0.25 ms per level (2-core x86 VM), a build within a second
MAX_LEVELS = 4096


def exceeds_grid_cap(per_axis, d):
    """True when a grid of per_axis**d points holds more than MAX_GRID_POINTS.

    Never forms a huge power: two or more points per axis in as many
    dimensions as the cap has bits are already past it.
    """
    return per_axis > 1 and (d >= MAX_GRID_POINTS.bit_length() or per_axis**d > MAX_GRID_POINTS)


def _overflows(base, exponent):
    """True when the float base**exponent is not finite; never forms a huge integer power."""
    try:
        return not float(base) ** exponent < math.inf
    except OverflowError:
        return True


def size_violations(B, d, J, grid=None, band_limit=None, order=0):
    """Why a run with levels 0..J-1 at scale B in dimension d is too big to build, as messages.

    The one place sizes are decided, before anything is built or any
    per-level loop runs: B**J overflowing a float (reported alone, since no
    size follows from it), a derivative order |m| = order whose top
    threshold factor B**((J-1)|m|) or top frequency power L**|m| (L =
    box_half_width(B, J-1)) overflows a float, more than MAX_LEVELS levels,
    the top cubature or the sum of every level's cubature (the frame holds
    levels 0..max(J-1, 0)) above MAX_GRID_POINTS, and, when given, a
    uniform evaluation grid of `grid` points per axis or the grid analyze
    uses for a function of band `band_limit` above it. An empty list means
    the run fits.
    """
    if _overflows(B, max(J, 1)):
        return [f"B={B:g} with J={J} overflows a float in B**J"]
    out = []
    L = box_half_width(B, J - 1)
    if _overflows(B, (J - 1) * order) or _overflows(L, order):
        out.append(
            f"derivative order |m|={order} with B={B:g} and J={J} overflows a float "
            f"in B**((J-1)|m|) or {L}**|m|"
        )
    if J > MAX_LEVELS:
        out.append(f"{J} levels exceed the cap {MAX_LEVELS}")
    jmax = max(J - 1, 0)
    top = cubature_size(B, jmax)
    if exceeds_grid_cap(top, d):
        out.append(f"cubature of {top}^{d} points at level {jmax} exceeds the cap {MAX_GRID_POINTS}")
    elif J <= MAX_LEVELS:  # every level is within the cap, and there are few enough to sum
        total = sum(cubature_size(B, j) ** d for j in range(jmax + 1))
        if total > MAX_GRID_POINTS:
            out.append(
                f"cubature of {total} points over levels 0..{jmax} exceeds the cap {MAX_GRID_POINTS}"
            )
    if grid is not None and exceeds_grid_cap(grid, d):
        out.append(f"evaluation grid of {grid}^{d} points exceeds the cap {MAX_GRID_POINTS}")
    npts = None if band_limit is None else analysis_grid_size(B, J - 1, band_limit)
    if npts is not None and exceeds_grid_cap(npts, d):
        out.append(f"analysis grid of {npts}^{d} points exceeds the cap {MAX_GRID_POINTS}")
    return out


def _largest_magnitude(values):
    """max |v| of an array, 0 when empty; of a real one as max and -min, with no temporary."""
    if not values.size:
        return 0.0
    if np.iscomplexobj(values):
        return float(np.abs(values).max())
    return max(float(values.max()), -float(values.min()))


def refuse_residue(residue, values, what):
    """The one imaginary-residue rule: refuse residue > IMAG_RESIDUE_TOL * max(1, max |values|).

    values is what the residue rides on: the real part of nominally real
    values, or a box spectrum. The rounding of a sum grows with its terms,
    so the bound is relative; it is absolute below 1, where an array of
    pure rounding (the analysis of a uniform density) has real parts as
    small as its residue. A broken conjugate symmetry leaves a residue of
    the size of the terms themselves and is refused. The scale of values is
    read only when the residue passes IMAG_RESIDUE_TOL, the least the bound
    can be.
    """
    if residue <= IMAG_RESIDUE_TOL:
        return
    scale = _largest_magnitude(values)
    bound = IMAG_RESIDUE_TOL * max(1.0, scale)
    if residue > bound:
        raise ValueError(
            f"imaginary residue {residue:.3e} exceeds {bound:.3e} = {IMAG_RESIDUE_TOL:g} "
            f"x max(1, largest magnitude {scale:.3e}) in {what}"
        )


def _checked_real(values, what):
    """Real part of a nominally real array (a view of complex input), once its residue is checked.

    Raises instead of truncating silently: a residue beyond refuse_residue's
    relative bound means a broken conjugate-symmetric sum, not a rounding
    artifact.
    """
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return np.asarray(values, dtype=float)
    refuse_residue(_largest_magnitude(values.imag), values.real, what)
    return values.real


def drop_imag(values, what="evaluation"):
    """Assert the imaginary residue of a nominally real array is tiny, then drop it."""
    return np.ascontiguousarray(_checked_real(values, what))


# Gauss-Legendre rule on [-1, 1]: the ramp integrates the bump over one grid
# cell (or part of one) with it, the moments integrate b^2 over each panel.
# Doubling the nodes or quadrupling the panels moves nothing beyond rounding.
# The 8 nodes and weights are numpy.polynomial.legendre.leggauss(8) bit for bit,
# written out so that importing the frame does not import numpy.polynomial.
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
# equal panels on each side of u = 1 in the moment quadrature
_MOMENT_PANELS = 64
# uniform nodes on [-1, 1] at which the window ramp is tabulated
_RAMP_NODES = 4097


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


@functools.cache
def _ramp():
    """The window ramp's table, (nodes, cumulative): built on first use, once per process.

    nodes are _RAMP_NODES uniform points on [-1, 1] and cumulative[k] the
    integral of psi0 from -1 to nodes[k], one Gauss-Legendre rule per cell,
    accumulated. Nothing in it depends on B, so every window reads the same
    read-only pair; importing the module builds nothing.
    """
    nodes = np.linspace(-1.0, 1.0, _RAMP_NODES)
    cells = _gauss_legendre(_bump, nodes[:-1], nodes[1:])
    cumulative = np.concatenate(([0.0], np.cumsum(cells)))
    nodes.flags.writeable = cumulative.flags.writeable = False
    return nodes, cumulative


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
    cell of a uniform _RAMP_NODES grid on [-1, 1] is tabulated by
    Gauss-Legendre and accumulated, and Psi(u) adds the same rule on the
    partial cell [x_k, u]. That table does not depend on B: it is built once
    per process (_ramp) and shared by every window. Frames share their
    windows too, one per B (_shared_window), so each moment I_q is integrated
    once per (B, q) in a process; a window built directly has moments of its
    own, with the same bits.
    """

    def __init__(self, B):
        if B <= 1:
            raise ValueError("scale B must exceed 1")
        self.B = float(B)
        self._grid, self._cumulative = _ramp()
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
        """b(t)^2 = max(phi(t/B) - phi(t), 0), elementwise, from one plateau per point.

        Where t <= 1, t/B <= 1/B also in floats (rounding is monotone), so
        phi(t/B) is exactly 1; from 1 on, phi(t) is exactly 0. So phi is
        evaluated once, at t or t/B, and 1 - phi or phi is the same
        difference, bit for bit.
        """
        t = np.asarray(t, dtype=float)
        low = t <= 1.0
        phi = self._plateau(np.where(low, t, t / self.B))
        return np.maximum(np.where(low, 1.0 - phi, phi), 0.0)

    def __call__(self, t):
        out = np.sqrt(self._squared(t))  # max() above clips sub-epsilon negatives
        return float(out) if out.ndim == 0 else out

    def moment(self, q):
        """I_q = integral of u**q b(u)^2 over [1/B, B], cached per q.

        Composite Gauss-Legendre on equal panels of [1/B, 1] and [1, B]; b^2
        is C-infinity on each piece (1 - phi(u) on the first, phi(u/B) on the
        second). Threads that ask a shared window for a new q at once may
        each integrate it; they store the same bits.
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


@functools.cache
def _shared_window(B):
    """The one NeedletWindow at scale float(B) that every frame of that scale reads.

    Kept for the life of the process: one small object per distinct scale,
    holding its moments; the ramp arrays are _ramp's, shared.
    """
    return NeedletWindow(B)


def _grid_axis(npts):
    """The coordinates 2 pi k / npts, k = 0..npts-1, of every uniform grid axis."""
    return np.arange(npts) * (TWO_PI / npts)


def uniform_grid(npts, d):
    """Uniform tensor grid on [0, 2pi)^d with npts points per dimension, as (npts**d, d) rows."""
    if npts < 1:
        raise ValueError("grid needs at least one point per dimension")
    mesh = np.meshgrid(*([_grid_axis(npts)] * d), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


def _uniform_grid_size(points):
    """G when points equals uniform_grid(G, d) row for row and coordinate for coordinate, else None.

    Only the exact layout counts: shuffled rows, a shifted or unreduced
    copy of the grid, or a coordinate one ulp off is a plain point set.
    """
    n, d = points.shape
    npts = round(n ** (1.0 / d)) if n else 0
    if npts < 1 or npts**d != n:
        return None
    axis = _grid_axis(npts)
    cube = points.reshape((npts,) * d + (d,))
    for a in range(d):
        along = axis.reshape([npts if b == a else 1 for b in range(d)])
        if not (cube[..., a] == along).all():
            return None
    return npts


@dataclasses.dataclass(frozen=True)
class CubatureLevel:
    """Uniform cubature exact for all frequency products of one shell.

    Its K_j points, uniform_grid(npts_per_dim, d), are built on first read
    and read-only: the transforms use only K, weight and npts_per_dim.
    """

    j: int
    npts_per_dim: int
    d: int
    weight: float  # common weight lambda_jk = (2pi)^d / K_j

    @property
    def K(self):
        return self.npts_per_dim**self.d

    @functools.cached_property
    def points(self):
        """(K_j, d) cubature points xi_k, in uniform_grid's row order."""
        points = uniform_grid(self.npts_per_dim, self.d)
        points.flags.writeable = False
        return points


@dataclasses.dataclass(frozen=True)
class _Level:
    j: int
    freqs: np.ndarray  # (nf, d) int64
    bvals: np.ndarray  # (nf,) window values b(|l|/B^j)
    cubature: CubatureLevel


class NeedletFrame:
    """Toroidal needlet system at scale B, dimension d, levels 0..jmax.

    Immutable after construction; shells and window values are precomputed
    per level, each level's cubature points on their first read, and the
    window is the one every frame of scale B shares (_shared_window), with
    its moments. A frame that size_violations refuses raises its first
    violation before any level is built; grid, the points per axis of a
    uniform grid the caller will evaluate on, joins that check.
    """

    def __init__(self, B, d, jmax, grid=None):
        if d < 1:
            raise ValueError("dimension d must be at least 1")
        if jmax < 0:
            raise ValueError("jmax must be nonnegative")
        self.B = float(B)
        self.d = int(d)
        self.jmax = int(jmax)
        self.window = _shared_window(self.B)
        problems = size_violations(self.B, self.d, self.jmax + 1, grid)
        if problems:
            raise ValueError(problems[0])
        self._levels = []
        for j in range(self.jmax + 1):
            freqs = frequency_shell(j, self.B, self.d)
            bvals = np.asarray(self.window(eigenvalue(freqs) / self.B**j), dtype=float)
            npts = cubature_size(self.B, j)
            cubature = CubatureLevel(j, npts, self.d, TWO_PI**self.d / npts**self.d)
            self._levels.append(_Level(j, freqs, bvals, cubature))

    def level(self, j):
        if not 0 <= j <= self.jmax:
            raise ValueError(f"level {j} outside 0..{self.jmax}")
        return self._levels[j]

    def shell(self, j):
        return self.level(j).freqs

    def cubature(self, j):
        return self.level(j).cubature


def block_rows(n, width):
    """Rows per block so that a (rows, width) complex block fits PHASE_BLOCK_BYTES.

    Never below one row, never above n.
    """
    return max(1, min(int(n), PHASE_BLOCK_BYTES // (16 * max(int(width), 1))))


def _double(pos, L):
    """Fill pos[2..L] with powers of pos[1] (pos[0] = 1): rows k+1..2k are rows 1..k times row k."""
    k = 1
    while k < L:
        top = min(2 * k, L)
        np.multiply(pos[1 : top - k + 1], pos[k], out=pos[k + 1 : top + 1])
        k = top


# exp(i x) = T exp(i r), x = k 2pi/256 + r, k = rint(x 256/2pi): the step 2pi/256
# is split in two (Cody-Waite), _STEP_HI of 24 significant bits, so k _STEP_HI is
# exact, and _STEP_LO the rest of the true 2pi/256, not of TWO_PI / 256
_STEP_HI = float.fromhex("0x1.921fb6p-6")
_STEP_LO = float.fromhex("-0x1.777a5cf72cecep-31")
# adding 1.5 * 2^52 rounds to the nearest integer, held in the float's low bits
_ROUND = 1.5 * 2.0**52
# the largest |x| the kernel reduces; beyond it, and for NaN and inf, libm's cos/sin
_REDUCED_MAX = 2.0**20


@functools.cache
def _phase_table():
    """cos and sin of 2pi j / 256 for j < 256: built on first use, once per process.

    libm's cos/sin at the float angle a = j fl(2pi/256), corrected to first
    order by the residual 2pi j/256 - a, which the split step gives exactly
    enough; read-only.
    """
    j = np.arange(256.0)
    a = j * (TWO_PI / 256)
    rest = (j * _STEP_HI - a) + j * _STEP_LO
    c, s = np.cos(a), np.sin(a)
    cos, sin = c - rest * s, s + rest * c
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _exp_i(x, out, spare):
    """out = exp(i x) elementwise: x a nonempty float array, out a complex array of its shape.

    spare holds four float arrays of x's shape, overwritten. |x| <= 2^20 is
    reduced to x = k 2pi/256 + r, |r| <= pi/256, and exp(i x) = T + (T (cos r
    - 1) + i T sin r) with T = exp(2 pi i k / 256) read from _phase_table and
    cos r - 1, sin r by their Taylor polynomials of degree 6 and 5: at most
    2e-16 from the true value, exp(i 0) = 1 exactly. Every other entry (and
    NaN, inf) gets np.cos/np.sin; only a block holding one builds a mask.
    Each entry's bits depend on it alone, not on the block, offset or strides.
    """
    if not (-_REDUCED_MAX <= x.min() and x.max() <= _REDUCED_MAX):
        far = ~(np.abs(x) <= _REDUCED_MAX)
        _exp_i(np.where(far, 0.0, x), out, spare)
        out.real[far] = np.cos(x[far])
        out.imag[far] = np.sin(x[far])
        return
    k, a, b, c = spare
    np.multiply(x, 256 / TWO_PI, out=k)
    k += _ROUND
    np.subtract(k, _ROUND, out=a)  # k itself
    np.multiply(a, _STEP_HI, out=b)
    np.subtract(x, b, out=b)  # exact
    a *= _STEP_LO
    b -= a  # r
    idx = k.view(np.int64)
    idx &= 255  # k mod 256, the float's low bits
    np.multiply(b, b, out=a)  # r^2
    np.multiply(a, 1 / 120, out=c)
    c += -1 / 6
    c *= a
    c *= b
    b += c  # sin r
    re, im = out.real, out.imag
    np.multiply(a, -1 / 720, out=c)
    c += 1 / 24
    c *= a
    c += -0.5
    np.multiply(c, a, out=re)  # cos r - 1
    # T = exp(2 pi i k/256) into two contiguous rows (a strided out would be buffered)
    cos, sin = _phase_table()
    cos.take(idx, out=a, mode="clip")
    sin.take(idx, out=c, mode="clip")
    np.multiply(a, b, out=k)
    np.multiply(c, re, out=im)
    im += k
    im += c  # Ts + (Ts (cos r - 1) + Tc sin r)
    np.multiply(a, re, out=k)
    b *= c
    k -= b
    np.add(k, a, out=re)  # Tc + (Tc (cos r - 1) - Ts sin r)


def _exp_powers(pos, x, spare=()):
    """Fill row l of pos with exp(i l x): row 1 by _exp_i, the rest by _double.

    The kernel's scratch is two complex rows filled after it, as four float
    rows: rows 2 and 3, rows 0 and 2, or two rows of spare (the d = 1 high
    digit table); only a table of L <= 1 allocates them.
    """
    if len(pos) > 1 and x.size:
        rows = pos[2:4] if len(pos) > 3 else pos[::2] if len(pos) == 3 else spare[:2]
        if len(rows) < 2:
            rows = np.empty((2, x.size), dtype=complex)
        (k, a), (b, c) = rows.view(float).reshape(2, 2, -1)
        _exp_i(x, pos[1], (k, a, b, c))
    pos[0] = 1.0
    _double(pos, len(pos) - 1)


def _axis_phases(x, L, full=True, out=None):
    """exp(i l x) for l = -L..L (full) or l = 0..L, frequency-major.

    Returns a complex (2L+1, n) array indexed by l + L, or (L+1, n) indexed
    by l; negative rows are conjugates. Row 1 is _exp_i's, within 2e-16;
    the error grows about linearly in |l|, below (|l|+1) * 1e-15. out, when
    given, is that array, filled in place and returned; the kernel's
    scratch is its own rows.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((2 * L + 1 if full else L + 1, x.shape[0]), dtype=complex)
    pos = out[L:] if full else out
    _exp_powers(pos, x)
    if full:
        np.conjugate(pos[:0:-1], out=out[:L])
    return out


def _digit_tables(x, q, r, out):
    """exp(i a x) for a < q and exp(i q b x) for b < r, as (q, n) and (r, n) tables.

    Every l < q r is a + q b for one pair of digits; the high table holds
    the powers of exp(i q x) = exp(i (q-1) x) exp(i x), so the error stays
    about linear in a + q b. Both are filled as the rows of out, a complex
    (q + r, n) array (q rows when r = 1, where the high table is the low
    table's row of ones).
    """
    x = np.asarray(x, dtype=float)
    low, high = out[:q], out[q:]
    _exp_powers(low, x, high)
    if r == 1:
        return low, low[:1]
    high[0] = 1.0
    np.multiply(low[q - 1], low[1], out=high[1])
    _double(high, r - 1)
    return low, high


def _carve(buffer, cols, heights):
    """C-contiguous (h, cols) tables, one per height, end to end at the front of a flat buffer."""
    tables, start = [], 0
    for h in heights:
        tables.append(buffer[start : start + h * cols].reshape(h, cols))
        start += h * cols
    return tables


def box_half_width(B, j):
    """L = ceil(B**(j+1)) - 1: every shell up to level j lies in the box |l_i| <= L."""
    return math.ceil(B ** (j + 1)) - 1


def cubature_size(B, j):
    """Points per axis of level j's cubature: 2 ceil(B**(j+1)) + 1."""
    return 2 * math.ceil(B ** (j + 1)) + 1


def min_grid_size(B, J):
    """Fewest uniform points per axis that resolve an estimator with levels 0..J-1.

    Its band is the box |l_i| <= box_half_width(B, J-1), so the grid needs
    2 * box_half_width(B, J-1) + 1 = 2 ceil(B**J) - 1 points (1 for J = 0).
    """
    return 2 * box_half_width(B, J - 1) + 1


def spectrum_block_shape(n, d, L):
    """(rows, width) of sample_spectrum's row blocks for n points; rows * width * 16 fits PHASE_BLOCK_BYTES.

    In d >= 2 the width is the sum of the table heights (_spectrum_shape),
    so a block's whole table buffer fits; in d = 1 it is 2L+1, at least the
    rows of both digit tables.
    """
    width = 2 * L + 1 if d == 1 else sum(_spectrum_shape(d, L)[1])
    return block_rows(n, width), width


def _spectrum_shape(d, L):
    """sample_spectrum's sum, (q, r) or (2, (L+1) W^(d-2), L+1), and the heights of a block's tables."""
    W = 2 * L + 1
    if d == 1:
        q = math.isqrt(L) + 1
        r = L // q + 1
        return (q, r), (q + r if r > 1 else q,)
    # the last and first axes' tables over l >= 0, each middle axis's over
    # -L..L, then their running outer products
    half = L + 1
    heights = (half, half) + (W,) * (d - 2) + tuple(half * W**a for a in range(1, d - 1))
    return (2, half * W ** (d - 2), half), heights


def spectrum_buffer(n, d, L):
    """An uninitialized complex buffer that holds every table of sample_spectrum's widest block.

    sum(table heights) * rows entries, rows those of spectrum_block_shape(n,
    d, L): in d >= 2 at most PHASE_BLOCK_BYTES (unless one row alone is
    wider). A caller that reduces many samples of one shape allocates it
    once and passes it to each sample_spectrum call.
    """
    rows, _ = spectrum_block_shape(n, d, L)
    return np.empty(sum(_spectrum_shape(d, L)[1]) * rows, dtype=complex)


class RowStream(NamedTuple):
    """n points of d coordinates, shape = (n, d), that sample_spectrum reads in row order.

    next_rows(b) returns the next b rows as a (b, d) float array, which the
    following call may overwrite: sample_spectrum calls it once per row
    block of spectrum_block_shape(n, d, L), in order, the last block short,
    and reduces each block before it asks for the next. A Monte Carlo
    replication draws its sample this way into a workspace of one block.
    """

    shape: tuple
    next_rows: object


def sample_spectrum(points, L, buffer=None):
    """Type-1 sum S_l = sum_i exp(i l . x_i) on the box |l_i| <= L.

    points is an (n, d) array or a RowStream of n such rows, read block by
    block; either gives the same blocks in the same order, so the same bits.
    Returns a complex array of shape (2L+1,)*d indexed by l + L. The points
    are real, so S_{-l} = conj(S_l), and only the half box l_1 >= 0 is
    summed. In d >= 2, per row block, lead is the first axis's phase table
    over l_1 >= 0 (d = 2) or its running outer product with the middle
    axes' tables over -L..L (d >= 3, (L+1) W^(d-2) rows, W = 2L+1), and
    last the last axis's table over l_d >= 0; two GEMMs add P += lead @
    last.T and, with last conjugated in place, Q += lead @ last.T, which is
    S at -l_d. The half box takes l_d >= 0 from P and l_d < 0 from Q, the
    other half its conjugate mirror. In d = 1, one GEMM of the digit tables
    exp(i a x), a < q = isqrt(L) + 1, and exp(i q b x), b < r = L // q + 1:
    the (q, r) result holds S_{a+qb}, read transposed, from q + r table
    rows, not L + 1. Every block's tables are contiguous views of one flat
    complex buffer, sized for the widest block (_carve): sum(heights) *
    rows * 16 bytes, the rows those of spectrum_block_shape. In d >= 2 that
    is within PHASE_BLOCK_BYTES: heights (L+1) + (L+1) in d = 2, 3.91 MiB
    at L = 15 and n = 8000; (L+1) + (L+1) + W + (L+1) W in d = 3. In d = 1
    the rows are those of a (2L+1)-wide block, wider than q + r. buffer,
    when given, is that buffer or a larger one (spectrum_buffer(n, d, L)),
    owned by the caller and overwritten: a Monte Carlo chunk passes one to
    every replication, so no call faults in fresh table pages. Otherwise
    the call allocates its own. Blocks are reduced in a fixed order, so the
    sum does not depend on the thread count. That BLAS's own threads leave
    its bits alone was measured for samples of one block (bench reports at
    OPENBLAS_NUM_THREADS=1 and the default), not promised; over several
    d >= 2 blocks the last bits were seen to move with them.
    """
    n, d = points.shape
    W = 2 * L + 1
    shape, heights = _spectrum_shape(d, L)
    S = np.zeros(shape, dtype=complex)
    rows, _ = spectrum_block_shape(n, d, L)
    # one buffer for every block: its pages are faulted in once, not once per block
    if buffer is None:
        buffer = spectrum_buffer(n, d, L)
    elif buffer.size < sum(heights) * rows:
        raise ValueError(f"table buffer of {buffer.size} entries is short of {sum(heights) * rows}")
    for start in range(0, n, rows):
        if isinstance(points, RowStream):
            block = points.next_rows(min(rows, n - start))
        else:
            block = points[start : start + rows]
        b = block.shape[0]
        tables = _carve(buffer, b, heights)
        if d == 1:
            lead, last = _digit_tables(block[:, 0], *S.shape, tables[0])
            S += lead @ last.T
            continue
        last = _axis_phases(block[:, -1], L, full=False, out=tables[0])
        lead = _axis_phases(block[:, 0], L, full=False, out=tables[1])
        for a in range(1, d - 1):
            axis = _axis_phases(block[:, a], L, out=tables[1 + a])
            product = tables[d - 1 + a]
            np.multiply(lead[:, None, :], axis[None, :, :], out=product.reshape(-1, W, b))
            lead = product
        S[0] += lead @ last.T
        np.conjugate(last, out=last)
        S[1] += lead @ last.T
    box = np.empty((W,) * d, dtype=complex)
    if d == 1:
        box[L:] = S.T.reshape(-1)[: L + 1]
    else:
        quadrant = (L + 1,) + (W,) * (d - 2) + (L + 1,)
        box[L:, ..., L:] = S[0].reshape(quadrant)
        box[L:, ..., :L] = S[1].reshape(quadrant)[..., :0:-1]
    np.conjugate(np.flip(box[L + 1 :]), out=box[:L])
    return box


def spectrum_values(box, points):
    """Adjoint of sample_spectrum: sum_l box[l + L] exp(i l . x) at every row x of points.

    The box holds d = points.shape[1] frequency axes, optionally followed by
    a family axis of R spectra, and the values have shape box.shape[d:] +
    (n,): (n,) for one spectrum, (R, n) for a family. Contracts one axis at a
    time: a GEMM of the first axis's phase table against the box, then a
    row-wise product and sum per remaining axis, all R spectra at once. Row
    blocks are sized so that the phase table and the partial sums each fit
    PHASE_BLOCK_BYTES.
    """
    n, d = points.shape
    W = box.shape[0]
    L = (W - 1) // 2
    flat = box.reshape(W, -1)
    out = np.empty((flat.shape[1] // W ** (d - 1), n), dtype=complex)
    rows = block_rows(n, max(W, flat.shape[1]))
    for start in range(0, n, rows):
        block = points[start : start + rows]
        r = block.shape[0]
        acc = _axis_phases(block[:, 0], L).T @ flat
        for a in range(1, d):
            axis = _axis_phases(block[:, a], L)
            acc = np.einsum("wr,rwk->rk", axis, acc.reshape(r, W, -1))
        out[:, start : start + r] = acc.T
    return out.reshape(box.shape[d:] + (n,))


def grid_values(box, npts):
    """sum_l box[l + L, i] exp(i l . x) for each spectrum i at every point x of uniform_grid(npts, d).

    box is a family of R box spectra stacked on a trailing axis, (2L+1,)*d +
    (R,), and the values come back as (R, npts**d), each row in uniform_grid's
    row order; one spectrum is a family of one. The tensor-product form of
    spectrum_values: every axis of the grid holds the same npts coordinates,
    so one (2L+1, npts) phase table, built for the half-width L of this box,
    serves all d axes and all R spectra, and the box is contracted against
    it one axis at a time (d GEMMs). Each contraction moves the finished
    grid axis to the back, so after the last one the family axis leads and
    the grid follows in row-major order. Any npts >= 1 works, also below
    2L+1, where the table itself aliases the frequencies. Returns a complex
    array.
    """
    box = np.asarray(box, dtype=complex)
    W = box.shape[0]
    table = _axis_phases(_grid_axis(npts), (W - 1) // 2)
    out = box
    for _ in range(box.ndim - 1):
        out = out.reshape(W, -1).T @ table
    return out.reshape(box.shape[-1], -1)


def box_index(freqs, L):
    """Index tuple of the shell frequencies in a (2L+1,)*d box spectrum."""
    return tuple(freqs[:, i] + L for i in range(freqs.shape[1]))


def _cube_index(freqs, npts):
    """Index tuple of the frequencies in an npts**d FFT cube (l mod npts per axis).

    Residues are distinct because per-coordinate frequencies stay below npts/2.
    """
    return tuple(np.mod(freqs[:, i], npts) for i in range(freqs.shape[1]))


def _level_fft(cubes, d, inverse=False):
    """The DFT of every (N,)*d cube over the last d axes of a stack, last axis first as fftn does.

    Forward, sum_k c_k exp(-i <l, xi_k>) at every l mod N (pixels to shell);
    inverse, N**d * ifftn, sum_l a_l exp(+i <l, xi_k>) at every cubature
    point xi_k = 2 pi k / N (shell to pixels). One 1-d transform per axis
    gives fftn's bits without fftn's argument handling (about 4 us per call
    at N = 33 on a 2-core x86 VM). Callers fill or read a level's cube at
    its cube index (_cube_index).
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    for axis in range(-1, -d - 1, -1):
        cubes = transform(cubes, axis=axis)
    return cubes.shape[-1] ** d * cubes if inverse else cubes


def _family_values(box, points, npts=None):
    """(R, n) real values of R box spectra, (2L+1,)*d + (R,), at the n rows of points.

    With npts, the points are uniform_grid(npts, d) and the family goes
    through grid_values, which builds the (2L+1, npts) phase table of this
    box's own half-width; otherwise through spectrum_values. The family axis
    is evaluated in chunks of block_rows(R, n) rows, so the complex values
    of a chunk fit PHASE_BLOCK_BYTES; each chunk's imaginary residue is
    checked before its real part is kept. On the grid a row's values do not
    depend on the family it is in, since grid_values puts the family on the
    row axis of its matrix products; but in d = 1 a chunk of one row would
    reach numpy's matrix-vector product, whose last bits differ from the
    matrix product's, so while two rows fit a block a lone row is evaluated
    beside a copy of itself. (Off the grid the family is the column axis of
    spectrum_values' product, and its last bits may depend on the family.)
    """
    R, n = box.shape[-1], points.shape[0]
    rows = block_rows(R, n)
    twin = npts is not None and box.ndim == 2 and block_rows(2, n) == 2
    values = None
    for start in range(0, R, rows):
        chunk = box[..., start : start + rows]
        count = chunk.shape[-1]
        if twin and count == 1:
            chunk = chunk[..., [0, 0]]
        part = spectrum_values(chunk, points) if npts is None else grid_values(chunk, npts)
        if values is None:
            # allocated once the first chunk's temporaries are gone: a family
            # of one peaks at its complex values plus the real result
            values = np.empty((R, n))
        values[start : start + count] = _checked_real(part[:count], "synthesis")
        del part  # the next chunk is formed without this one
    return values


_STACK_ERROR = "coefficient levels must be 1-d finite arrays or (R, K_j) or (C, R, K_j) stacks"


@dataclasses.dataclass(eq=False)
class CoefficientArray:
    """Per-level needlet coefficients for one derivative order.

    levels[j] is the length-K_j float array of coefficients at level j, or
    a stack of coefficient sets with one or two leading axes, (R, K_j) or
    (C, R, K_j), with the same leading shape at every level: the rows of a
    stacked estimator, one per threshold rule, and for C replications one
    such family per replication (synthesize evaluates every row). flat
    holds every level side by side, (..., K_total), and levels[j] is a view
    of its columns at the j-th slice. Levels given one by one are checked
    one by one and copied into flat once; the estimator pipeline passes the
    flat array itself (from_flat), checked once. lead is the leading shape,
    () for a single coefficient set.
    """

    m: tuple
    levels: list

    def __post_init__(self):
        self.m = tuple(int(v) for v in self.m)
        levels = [np.asarray(lv, dtype=float) for lv in self.levels]
        for lv in levels:
            if lv.ndim not in (1, 2, 3) or not np.all(np.isfinite(lv)):
                raise ValueError(_STACK_ERROR)
            if lv.shape[:-1] != levels[0].shape[:-1]:
                raise ValueError("coefficient stacks must hold the same rows at every level")
        lead = levels[0].shape[:-1] if levels else ()
        offsets = np.cumsum([0] + [lv.shape[-1] for lv in levels]).tolist()
        self.flat = np.concatenate([np.zeros(lead + (0,)), *levels], axis=-1)
        self.levels = [self.flat[..., a:b] for a, b in zip(offsets[:-1], offsets[1:])]

    @classmethod
    def from_flat(cls, m, flat, slices):
        """Levels as views of one flat array, finite and shape checked once on it."""
        if flat.ndim not in (1, 2, 3) or not np.isfinite(flat).all():
            raise ValueError(_STACK_ERROR)
        coeffs = cls.__new__(cls)
        coeffs.m, coeffs.flat = m, flat
        coeffs.levels = [flat[..., cols] for cols in slices]
        return coeffs

    @property
    def njlevels(self):
        return len(self.levels)

    @property
    def lead(self):
        return self.flat.shape[:-1]


def _check_structure(frame, coeffs):
    """Reject coefficient arrays whose level sizes do not match the frame."""
    if coeffs.njlevels > frame.jmax + 1:
        raise ValueError(
            f"coefficients hold {coeffs.njlevels} levels but the frame stops at jmax={frame.jmax}"
        )
    for j, lv in enumerate(coeffs.levels):
        K = frame.cubature(j).K
        if lv.shape[-1] != K:
            raise ValueError(f"level {j} holds {lv.shape[-1]} coefficients, frame cubature has {K}")


def _needlet_box(frame, j, m):
    """Box spectrum of psi^(m)_{j,k} centred at xi = 0, on |l_i| <= box_half_width(B, j).

    sqrt(lambda_j) (2pi)^-d b_l mult_l(m) on the shell, zero elsewhere: the
    (2pi)^(-d/2) of both basis factors folded into one constant. Every other
    needlet of the level is a translate, psi_{j,k}(x) = psi_{j,0}(x - xi_k).
    """
    lev = frame.level(j)
    L = box_half_width(frame.B, j)
    box = np.zeros((2 * L + 1,) * frame.d, dtype=complex)
    scale = math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
    box[box_index(lev.freqs, L)] = scale * lev.bvals * derivative_multiplier(lev.freqs, m)
    return box


def needlet_eval(frame, j, k, theta, m=None):
    """Evaluate the derivative needlet psi^(m)_{j,k} at one or more points.

    The needlet is the centred one translated to xi_k, so its box spectrum
    (_needlet_box) is evaluated at theta - xi_k by spectrum_values, in row
    blocks. Returns a float for a single point, else a 1-d array. The sum
    over the shell is conjugate-symmetric, hence real; the imaginary residue
    is checked (refuse_residue) and dropped.
    """
    lev = frame.level(j)
    K = lev.cubature.K
    if not 0 <= k < K:
        raise ValueError(f"pixel index {k} outside 0..{K - 1} at level {j}")
    m = as_multi_index(m, frame.d)
    pts = as_points(theta, frame.d)
    single = pts.shape[0] == 1 and np.ndim(theta) <= 1
    vals = spectrum_values(_needlet_box(frame, j, m), pts - lev.cubature.points[k])
    out = drop_imag(vals, what=f"needlet ({j},{k}) evaluation")
    return float(out[0]) if single else out


def analysis_grid_size(B, jmax, band_limit=None):
    """Points per axis of the FFT grid analyze uses: levels 0..jmax plus the band of f."""
    return cubature_size(B, jmax) + 2 * (int(band_limit) if band_limit else 0)


def besov_sequence_norm(coeffs, s, r, q, B, d):
    """Sequence-space Besov norm of a coefficient array, one per row of a stack.

    l^q over levels j of B**(j*(s + d*(1/2 - 1/r))) times the l^r norm over k
    of level j. r or q equal to inf take suprema. A single coefficient set
    gives a float; a stack gives an array of shape coeffs.lead, each entry
    the bits of its row alone (every reduction runs along the last axis and
    keeps it, so a single set rounds as one row of a stack).
    """
    if r < 1 or q < 1:
        raise ValueError("r and q must be at least 1 (inf allowed)")
    terms = np.zeros(coeffs.lead + (coeffs.njlevels,))
    for j, lv in enumerate(coeffs.levels):
        if math.isinf(r):
            lnorm, rexp = np.max(np.abs(lv), axis=-1, keepdims=True, initial=0.0), 0.0
        else:
            lnorm, rexp = np.sum(np.abs(lv) ** r, axis=-1, keepdims=True) ** (1.0 / r), 1.0 / r
        terms[..., j : j + 1] = B ** (j * (s + d * (0.5 - rexp))) * lnorm
    if math.isinf(q):
        norms = np.max(terms, axis=-1, keepdims=True, initial=0.0)
    else:
        norms = np.sum(terms**q, axis=-1, keepdims=True) ** (1.0 / q)
    return float(norms[0]) if norms.ndim == 1 else norms[..., 0]


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


def needlet_lp_norm(frame, j, m=None, p=2):
    """Quadrature L^p norm of psi^(m)_{j,k} on max(64, 8 ceil(B**(j+1))) points per axis.

    The norm is the same for every k, so it is taken for psi_{j,0}, centred
    at xi_0 = 0: grid_values evaluates its box spectrum (_needlet_box) on
    the whole quadrature grid without forming the grid's points.
    """
    m = as_multi_index(m, frame.d)
    grid_per_dim = max(64, 8 * math.ceil(frame.B ** (j + 1)))
    box = _needlet_box(frame, j, m)[..., None]
    vals = np.abs(drop_imag(grid_values(box, grid_per_dim)[0], what=f"needlet ({j},0) norm"))
    return float(grid_lp_norm(vals, p, frame.d, grid_per_dim))


def grid_lp_norm(magnitudes, p, d, grid_per_dim):
    """The L^p quadrature on uniform_grid(G, d) of |f| values, along the last axis.

    ((2pi/G)^d sum |f|^p)^(1/p), the largest value for p = inf: a scalar for
    (G^d,) magnitudes, one norm per row of a stack. needlet_lp_norm and the
    bench's grid risks (bench._lp_from_values) both take it.
    """
    if math.isinf(p):
        return np.max(magnitudes, axis=-1, initial=0.0)
    return ((TWO_PI / grid_per_dim) ** d * np.sum(magnitudes**p, axis=-1)) ** (1.0 / p)


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


def localization_profile(frame, j, k, m=None, exponent=3.0):
    """Fit the smallest c with |psi^(m)| <= c B^{j(|m|+d/2)} / (1 + B^j dist)^exponent.

    Samples 2048 points in all, split over the rays from the needlet's own
    center along each coordinate axis and the main diagonal, out to the
    torus injectivity radius.
    """
    m = as_multi_index(m, frame.d)
    lev = frame.level(j)
    xi = lev.cubature.points[k]
    directions = [np.eye(frame.d)[i] for i in range(frame.d)]
    if frame.d > 1:
        directions.append(np.ones(frame.d) / math.sqrt(frame.d))
    radii = np.linspace(0.0, np.pi, 2048 // len(directions))
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
