"""Needlet analysis, empirical coefficients and local-thresholding derivative estimators.

The m-th derivative of an unknown density f is estimated from an i.i.d.
sample by (a) averaging derivative needlets over the sample to get unbiased
coefficient estimates, (b) deleting or shrinking coefficients below a
level-dependent threshold, (c) synthesizing the survivors with underived
needlets. analyze computes the coefficients that (a) estimates, from f
itself; both map per-level shell amplitudes to pixels through one level
map of the plan below (_ReplicationPlan.pixels), so truth and estimate
share one code path and one flat layout.

Step (a) has two halves. A sample is reduced to its spectrum S_l = sum_i
exp(i l.X_i) on one box (frame.sample_spectrum); the level map then turns a
stack of such spectra, (C,) + box, into (C, K_total) coefficients with one
scatter, one FFT and one scale per level over all C rows, and judges each
row's finite values and imaginary residue on its own. empirical_coefficients
runs both halves on a stack of one; a Monte Carlo chunk reduces each
replication's sample to its spectrum and maps all the spectra at once.

Everything in these steps that does not depend on the sample or on the
points evaluated (the per-level indices and amplitudes, the thresholds
tau_j = kappa B^(j|m|) sqrt(ln n / n) of every rule) lives in one
_ReplicationPlan, built once per Monte Carlo run for (frame, m, J, rules)
and shared read-only by its replications and by the analysis of its truth;
a single estimate or analysis without one builds a plan of its own. The
plan holds no points: each synthesis checks the layout of the points it is
given and builds the phase table of the band it evaluates. Coefficients of
all levels lie side by side in one flat array (K_total,), or (R, K_total)
for R threshold rules, and the per-level arrays are views of it, so
thresholding, survivor counting and the finite check run once on the flat
stack rather than once per level. A Monte Carlo run stacks the raw
coefficients of C replications as (C, K_total) and thresholds and scores
them as one (C, R, K_total) estimator. Its grid risks read one box
spectrum of that estimator (synthesis_box, the first half of synthesize):
p = 2 never evaluates it, and any other p evaluates it once on the grid
(box_values, the second half).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .frame import (
    IMAG_RESIDUE_TOL,
    CoefficientArray,
    _check_structure,
    _cube_index,
    _family_values,
    _level_fft,
    _uniform_grid_size,
    analysis_grid_size,
    box_half_width,
    box_index,
    refuse_residue,
    sample_spectrum,
    size_violations,
    uniform_grid,
)
from .harmonics import TWO_PI, as_multi_index, as_points, derivative_multiplier


def truncation_level(n, d, m_total, B):
    """Highest estimated level: floor(log_B(n / ln n) / (d + 2|m|)).

    Balances the bias of dropping fine levels against the variance of
    estimating them; natural log inside, base-B log outside.
    """
    if n < 3:
        raise ValueError("need n >= 3 so that ln n exceeds 1")
    if m_total < 0:
        raise ValueError("derivative order must be nonnegative")
    if B <= 1:
        raise ValueError("scale B must exceed 1")
    return int(math.floor(math.log(n / math.log(n), B) / (d + 2 * m_total)))


@dataclasses.dataclass(frozen=True)
class ThresholdRule:
    """Keep-or-shrink rule with threshold tau_j = kappa * B^(j|m|) * sqrt(ln n / n).

    kind is "hard" (keep iff |u| >= tau, ties kept) or "soft" (shrink
    magnitudes by tau). scale_with_n=False drops the sqrt(ln n / n) factor,
    leaving tau_j = kappa * B^(j|m|); used only for literal replication of
    the reference benchmark schedule.
    """

    kind: str
    kappa: float
    m: tuple
    n: int
    B: float
    scale_with_n: bool = True

    def __post_init__(self):
        if self.kind not in ("hard", "soft"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if not 0 <= self.kappa < math.inf:
            raise ValueError("kappa must be nonnegative and finite")
        if self.n < 3:
            raise ValueError("thresholds need n >= 3")
        if not self.B > 1:
            raise ValueError("scale B must exceed 1")
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))


def threshold_value(rule, j):
    """tau at level j under the rule."""
    if j < 0:
        raise ValueError("level j must be nonnegative")
    tau = rule.kappa * rule.B ** (j * sum(rule.m))
    if rule.scale_with_n:
        tau *= math.sqrt(math.log(rule.n) / rule.n)
    return tau


def calibrated_rule(kind, kappa0, sup_norm, window, m, n, B, drop_sample_factor=False):
    """Benchmark schedule: kappa = kappa0 * M * I_|m|, M the density sup-norm.

    I_|m| is the |m|-th window moment; the sqrt(ln n / n) factor stays in
    threshold_value unless drop_sample_factor is set.
    """
    m = tuple(m)
    kappa = float(kappa0) * float(sup_norm) * window.moment(sum(m))
    return ThresholdRule(kind, kappa, m, n, B, scale_with_n=not drop_sample_factor)


def apply_threshold(kind, u, a):
    """Hard keeps u iff |u| >= a (boundary kept); soft shrinks |u| by a.

    Vectorized over u and a, which broadcast against each other: an (R, 1)
    column of thresholds against a (K,) level gives the (R, K) stack of R
    thresholded copies. Scalar in, scalar out.
    """
    if (np.asarray(a) < 0).any():
        raise ValueError("threshold must be nonnegative")
    arr = np.asarray(u, dtype=float)
    if kind == "hard":
        out = np.where(np.abs(arr) >= a, arr, 0.0)
    elif kind == "soft":
        out = np.sign(arr) * np.maximum(np.abs(arr) - a, 0.0)
    else:
        raise ValueError(f"unknown threshold kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def _freeze(value):
    """Make every ndarray in value, nested in tuples, read-only."""
    for item in value if isinstance(value, tuple) else ():
        _freeze(item)
    if isinstance(value, np.ndarray):
        value.flags.writeable = False


class RefusedRow(ValueError):
    """A row of a stack refused on its own by _ReplicationPlan.pixels; row is its index."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


class _ReplicationPlan:
    """Everything the replications of one run share, built once for (frame, m, J, rules).

    A Monte Carlo run builds one plan, refuses an order whose sample sums
    could overflow (refuse_sample_overflow), maps each chunk's sample
    spectra through it (sample_coefficients), analyzes its truth with it
    (analyze) and passes it to thresholded_estimator and synthesis_box; a
    call of empirical_coefficients, analyze, thresholded_estimator,
    synthesis_box or synthesize without one builds a one-use plan, so every
    estimate takes the same path.
    There is no cache: a plan lives as long as its caller keeps it. Its
    arrays are read-only, since replication threads share it. A rule whose
    m or B is not the plan's, and an order |m| whose thresholds or
    frequency powers overflow a float (size_violations), are refused before
    anything is built. For each level j < J:

    - cube[j], the level's FFT cube index, and npts[j], the cube's side;
    - gather[j], the shell's index in the box of half-width
      L = box_half_width(B, J-1), the box of the sample spectrum and of
      synthesis;
    - analysis[j] = b_l mult_l(m) and root_weight[j] = sqrt(lambda_j),
      which pixels applies (a sign, the 1/n of a sample and a power of 2pi
      join them per call), and synthesis[j] = sqrt(lambda_j) (2pi)^-d b_l;
    - slices[j], the columns of level j when the K_j coefficients of every
      level lie side by side in one flat array of `size` columns.

    The thresholds: taus[i, j] = threshold_value(rules[i], j), and by_kind,
    per rule kind its row mask and the (R_kind, size) taus that one
    apply_threshold call on the flat raw coefficients takes. Nothing here
    depends on the points a synthesis evaluates, so one plan serves any
    point set.
    """

    def __init__(self, frame, m, J, rules=()):
        for rule in rules:  # taus are built here alone, so a rule is checked here
            if rule.m != m or rule.B != frame.B:
                raise ValueError(
                    f"rule is for m={rule.m} and B={rule.B:g}, not m={m} and B={frame.B:g}"
                )
        # the frame's sizes passed when it was built; a derivative order may still overflow
        problems = size_violations(frame.B, frame.d, J, order=sum(m or ()))
        if problems:
            raise ValueError(problems[0])
        self.frame, self.m, self.J, self.rules = frame, m, J, tuple(rules)
        self.L = box_half_width(frame.B, J - 1)
        levels = [frame.level(j) for j in range(J)]
        self.npts = tuple(lev.cubature.npts_per_dim for lev in levels)
        self.cube = tuple(_cube_index(lev.freqs, N) for lev, N in zip(levels, self.npts))
        self.gather = tuple(box_index(lev.freqs, self.L) for lev in levels)
        mults = [np.atleast_1d(derivative_multiplier(lev.freqs, m)) for lev in levels]
        self.analysis = tuple(lev.bvals * mult for lev, mult in zip(levels, mults))
        self.root_weight = tuple(math.sqrt(lev.cubature.weight) for lev in levels)
        scales = [root * TWO_PI ** (-frame.d) for root in self.root_weight]
        self.synthesis = tuple(scale * lev.bvals for scale, lev in zip(scales, levels))
        sizes = [lev.cubature.K for lev in levels]
        offsets = np.cumsum([0] + sizes).tolist()
        self.size = offsets[-1]
        self.slices = tuple(map(slice, offsets[:-1], offsets[1:]))
        taus = [[threshold_value(rule, j) for j in range(J)] for rule in self.rules]
        self.taus = np.array(taus).reshape(len(self.rules), J)
        kinds = np.array([rule.kind for rule in self.rules])
        repeated = np.repeat(self.taus, sizes, axis=1)
        rows = {kind: kinds == kind for kind in kinds.tolist()}
        self.by_kind = tuple((kind, mask, repeated[mask]) for kind, mask in rows.items())
        _freeze(tuple(vars(self).values()))

    def pixels(self, spectra, gather, sign, power, inverse, what):
        """Coefficients of every level of a stack of C spectra, as one real (C, size) array.

        spectra is a (C,) + (N,)*d stack and gather[j] the index of level
        j's shell in one spectrum. Per level, one pass over the whole stack:
        the shells are multiplied by analysis[j], scattered into a zero stack
        of cubes at cube[j], transformed by one _level_fft (forward or
        inverse) and scaled by (sign root_weight[j]) (2pi)^power into the
        level's columns of one flat complex (C, size) array; each row gets
        the bits it would get alone. The frequency power in analysis[j] is
        applied before the sign's 1/n, so an order |m| that size_violations
        passes may still overflow on a sample sum S_l near n; the callers
        that map samples refuse such an order first (refuse_sample_overflow),
        and a row that overflows anyway is refused here. Each row is
        then judged on its own: one pass finds every row's largest |imag|
        and whether it is finite, and only a row that is not finite or whose
        residue passes IMAG_RESIDUE_TOL is refused (naming the order, or by
        refuse_residue as `what`) against its own scale, never its
        neighbours'. A refusal is a RefusedRow naming the row. The imaginary
        part is then dropped.
        """
        C, d = spectra.shape[0], self.frame.d
        raw = np.empty((C, self.size), dtype=complex)
        rows = (slice(None),)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below by name
            for j, cols in enumerate(self.slices):
                cube = np.zeros((C,) + (self.npts[j],) * d, dtype=complex)
                cube[rows + self.cube[j]] = self.analysis[j] * spectra[rows + gather[j]]
                scale = sign * self.root_weight[j] * TWO_PI**power
                np.multiply(scale, _level_fft(cube, d, inverse).reshape(C, -1), out=raw[:, cols])
            finite = np.isfinite(raw).all(axis=-1)
            residues = np.abs(raw.imag).max(axis=-1, initial=0.0)
        for row in np.flatnonzero(~finite | (residues > IMAG_RESIDUE_TOL)).tolist():
            if not finite[row]:
                raise RefusedRow(
                    f"derivative order |m|={sum(self.m)} overflows a float in {what}: "
                    f"the frequency power {self.L}**|m| times the shell amplitudes",
                    row,
                )
            try:
                refuse_residue(float(residues[row]), raw[row].real, what)
            except ValueError as exc:
                raise RefusedRow(str(exc), row) from None
        return np.ascontiguousarray(raw.real)

    def refuse_sample_overflow(self, n):
        """Refuse, before any sample is reduced, an order whose sums over n points could overflow.

        |S_l| <= n bounds every sample sum, so level j's scatter and FFT of
        analysis[j] S_l stay below n sum_l |analysis[j][l]|. When that bound
        is not a finite float at some level, pixels might overflow before
        its 1/n, and the order is refused here by name; otherwise no sample
        of n points can overflow. The bound is conservative: a sample whose
        sums stay smaller would have run.
        """
        with np.errstate(over="ignore"):  # an infinite sum is the refusal below
            masses = [float(np.abs(amps).sum()) for amps in self.analysis]
        for j, mass in enumerate(masses):
            if not n * mass < math.inf:
                raise ValueError(
                    f"derivative order |m|={sum(self.m)} overflows a float in the sample sums "
                    f"of n={n} points: n times the sum of |b_l mult_l(m)| over level {j}'s shell"
                )

    def sample_coefficients(self, spectra, n):
        """Raw coefficients (C, size) of C samples of n points from their (C,) + box sample spectra.

        The second half of empirical_coefficients, for a whole stack: pixels
        with each level's shell gathered from the box, the sign
        (-1)^|m| / n and (2pi)^-d, by forward FFT.
        """
        sign, what = (-1.0) ** sum(self.m) / n, "empirical coefficients"
        return self.pixels(spectra, self.gather, sign, -self.frame.d, False, what)

    def check(self, frame, J, m=None, rules=None):
        """Refuse a plan built for another frame, number of levels, derivative order or rules."""
        if (frame, J, m or self.m, rules or self.rules) != (self.frame, self.J, self.m, self.rules):
            raise ValueError("the replication plan was built for another frame, J, m or rules")


def _top_level(frame, jmax):
    """The top level to compute: jmax, or the frame's own for None; -1 means none."""
    jmax = frame.jmax if jmax is None else jmax
    if not -1 <= jmax <= frame.jmax:
        raise ValueError(f"jmax {jmax} outside -1..{frame.jmax}, the levels of the frame")
    return jmax


def empirical_coefficients(frame, samples, jmax=None, m=None, *, plan=None):
    """Unbiased coefficient estimates beta^(m)_{j,k} from an i.i.d. sample.

        beta^(m)_{j,k} = ((-1)^|m| / n) sum_i psi^(m)_{j,k}(X_i)

    (derivative needlets are real, so the conjugate is dropped). Two halves.
    The sample enters only through its spectrum S_l = sum_i exp(i l . X_i),
    computed once on the box holding every shell up to jmax and reduced in a
    fixed block order, so it is deterministic for any thread count. The
    plan's level map (sample_coefficients, then pixels) takes a stack of
    such spectra, here a stack of one: each level gathers its shell from S
    and maps it to pixels by forward FFT, with sign (-1)^|m| / n and
    (2pi)^-d, into its slice of one flat array, and the result is checked
    for finite values and an imaginary residue. The levels of the result
    are views of that array. A Monte Carlo run (bench) calls the same two
    halves, the second once per chunk of replications. Levels 0..jmax are
    produced; jmax = -1 gives none. plan, the run's _ReplicationPlan for
    this frame, m and jmax + 1 levels, supplies every per-level constant;
    without one the call builds its own. The sample is coerced to (n, d)
    points (as_points refuses another column count), an order whose sums
    over its n points could overflow is refused (refuse_sample_overflow),
    and sample_spectrum then refuses an empty or non-finite sample.
    """
    jmax = _top_level(frame, jmax)
    m = as_multi_index(m, frame.d)
    plan = plan or _ReplicationPlan(frame, m, jmax + 1)
    plan.check(frame, jmax + 1, m)
    X = as_points(samples, frame.d)
    plan.refuse_sample_overflow(X.shape[0])
    flat = plan.sample_coefficients(sample_spectrum(X, plan.L)[None], X.shape[0])
    return CoefficientArray.from_flat(m, flat[0], plan.slices)


def analyze(frame, f, m=None, jmax=None, band_limit=None, *, plan=None):
    """Needlet coefficients of the m-th derivative of f, by exact quadrature.

    Integration by parts moves the derivative onto the needlet, so only f
    itself is evaluated:

        beta^(m)_{j,k} = (-1)^|m| <f, psi^(m)_{j,k}>
                       = sqrt(lambda_j) sum_l b_l mult_l(m) a_l e_l(xi_jk)

    where a_l are the Fourier coefficients of f, taken by one FFT quadrature
    and mapped to pixels by the _ReplicationPlan.pixels that maps the sample
    spectrum in empirical_coefficients, here by inverse FFT with sign 1 and
    (2pi)^(-d/2), so beta^(m) and its estimate share one layout. Accepts a
    plain callable or an object with a `pdf` attribute (a test density); a
    `band_limit` attribute, when present, widens the quadrature grid
    accordingly. plan, a _ReplicationPlan for this frame, m and jmax + 1
    levels (a Monte Carlo run passes its own, whatever its rules), supplies
    the level map; without one the call builds its own.
    """
    jmax = _top_level(frame, jmax)
    m = as_multi_index(m, frame.d)
    fn = f.pdf if hasattr(f, "pdf") else f
    if band_limit is None:
        band_limit = getattr(f, "band_limit", None)
    if band_limit is not None and band_limit < 0:
        raise ValueError(f"band_limit must be nonnegative, got {band_limit}")
    problems = size_violations(frame.B, frame.d, jmax + 1, band_limit=band_limit, order=sum(m))
    if problems:
        raise ValueError(problems[0])
    plan = plan or _ReplicationPlan(frame, m, jmax + 1)
    plan.check(frame, jmax + 1, m)
    # a_l by FFT quadrature, exact once the grid resolves the shell band plus
    # the declared band of f
    npts = analysis_grid_size(frame.B, jmax, band_limit)
    grid = uniform_grid(npts, frame.d)
    fvals = np.asarray(fn(grid[:, 0] if frame.d == 1 else grid), dtype=float)
    if fvals.shape != (grid.shape[0],):
        raise ValueError("function evaluation returned a wrong shape")
    if not np.all(np.isfinite(fvals)):
        raise ValueError("function evaluation produced non-finite values")
    norm = (TWO_PI / npts) ** frame.d * TWO_PI ** (-frame.d / 2.0)
    spectrum = np.fft.fftn(fvals.reshape((npts,) * frame.d))
    np.multiply(norm, spectrum, out=spectrum)
    gather = tuple(_cube_index(frame.level(j).freqs, npts) for j in range(jmax + 1))
    # the (-1)^|m| of the integration by parts cancels against the conjugated
    # multiplier, so no sign factor remains here
    flat = plan.pixels(spectrum[None], gather, 1.0, -frame.d / 2.0, True, "analysis coefficients")
    return CoefficientArray.from_flat(m, flat[0], plan.slices)


def with_density_mean(values, m):
    """Add the mean (2pi)^-d of a probability density to m = 0 values; else return them.

    Needlets carry no zero frequency, so a synthesized density estimate is
    its zero-mean part. The samples come from a law of mass 1, whatever
    shape the truth is compared against.
    """
    return values + TWO_PI ** (-len(m)) if sum(m) == 0 else values


@dataclasses.dataclass(eq=False)
class DerivativeEstimator:
    """Thresholded needlet estimator of the m-th density derivative.

    Holds raw and thresholded coefficients for levels 0..J-1 and the
    per-level thresholds actually applied. rule is one ThresholdRule, with
    (K_j,) thresholded levels and (J,) taus; or a tuple of R rules sharing
    the raw coefficients, with (R, K_j) stacks and (R, J) taus, row i
    thresholded by rule[i]. Raw coefficients of C replications, (C, K_j),
    give one more leading axis: (C, K_j) or (C, R, K_j) thresholded levels,
    with the same taus. Evaluation synthesizes the thresholded coefficients
    with underived needlets, every row in one pass; for m = 0 it adds the
    density mean (2pi)^-d (with_density_mean), so it is the full density.
    plan is the _ReplicationPlan it was thresholded with
    (thresholded_estimator sets it), whose synthesis amplitudes evaluation
    reuses at any points; an estimator built without one evaluates through
    a one-use plan. survivors counts the thresholded levels themselves.
    """

    frame: object
    m: tuple
    rule: object
    J: int
    raw: CoefficientArray
    coeffs: CoefficientArray
    taus: np.ndarray
    plan: object = None

    def evaluate(self, grid):
        """Values at the points: (npts,), or the leading shape of the coefficients + (npts,)."""
        return with_density_mean(synthesize(self.frame, self.coeffs, grid, plan=self.plan), self.m)

    def survivors(self):
        """Counts of nonzero thresholded coefficients per level: the leading shape + (J,)."""
        counts = [np.count_nonzero(lv, axis=-1) for lv in self.coeffs.levels]
        # reshaped before the level axis moves last, so that J = 0 gives the leading shape + (0,)
        return np.moveaxis(np.array(counts, dtype=np.int64).reshape((-1,) + self.coeffs.lead), 0, -1)

    def surviving_counts(self):
        """Per level of a single estimator: (j, surviving, total, surviving fraction)."""
        levels = zip(self.survivors().tolist(), self.coeffs.levels)
        return [(j, alive, lv.size, alive / lv.size) for j, (alive, lv) in enumerate(levels)]

    def metadata(self):
        frame, rule = self.frame, self.rule
        shape = {"B": frame.B, "d": frame.d, "m": list(self.m), "J": self.J}
        return {**shape, "n": rule.n, "kappa": rule.kappa, "rule": rule.kind}


def thresholded_estimator(frame, raw, rules, *, plan=None):
    """Threshold raw coefficients of levels 0..J-1 into a DerivativeEstimator.

    J is the number of raw levels, (K_j,) each or (C, K_j) for C stacked
    replications. rules is one ThresholdRule, giving a single estimator, or
    a sequence of R rules, giving one row per rule: row i keeps or shrinks
    level j by tau_{i,j} = threshold_value(rules[i], j). Every level of
    every replication is thresholded at once on the flat layout: one
    apply_threshold call per rule kind, on all K_total raw coefficients
    with the kind's taus repeated over each level's columns, gives the
    (..., R_kind, K_total) rows of that kind, and the levels of the result
    are views of the (..., R, K_total) stack. A single rule is thresholded
    as one row, whose axis is then dropped. plan, the run's
    _ReplicationPlan for these rules, holds the taus; without one the call
    builds its own.
    """
    single = isinstance(rules, ThresholdRule)
    rules = (rules,) if single else tuple(rules)
    plan = plan or _ReplicationPlan(frame, raw.m, raw.njlevels, rules)
    plan.check(frame, raw.njlevels, raw.m, rules)
    kept = np.empty(raw.lead + (len(rules), plan.size))
    for kind, rows, taus in plan.by_kind:
        kept[..., rows, :] = apply_threshold(kind, raw.flat[..., None, :], taus)
    taus, rule = (plan.taus[0], rules[0]) if single else (plan.taus, rules)
    kept = kept[..., 0, :] if single else kept
    coeffs = CoefficientArray.from_flat(raw.m, kept, plan.slices)
    return DerivativeEstimator(frame, raw.m, rule, plan.J, raw, coeffs, taus, plan)


def estimate(frame, samples, m, rule, J_override=None):
    """Build the thresholded estimator from a sample.

    J is the rule-of-thumb truncation level unless J_override is given;
    levels 0..J-1 are estimated and thresholded with tau_{j} from the rule,
    which needs a frame with jmax >= J-1.
    """
    m = as_multi_index(m, frame.d)
    X = as_points(samples, frame.d)  # sample_spectrum refuses non-finite values
    n = X.shape[0]
    if n < 3:
        raise ValueError("estimation needs n >= 3")
    if rule.n != n:
        raise ValueError(f"rule was built for n={rule.n}, sample has n={n}")
    J = J_override if J_override is not None else truncation_level(n, frame.d, sum(m), frame.B)
    if J - 1 > frame.jmax:
        raise ValueError(
            f"truncation level J={J} needs a frame with jmax >= {J - 1}, got {frame.jmax}"
        )
    plan = _ReplicationPlan(frame, m, J, (rule,))
    raw = empirical_coefficients(frame, X, jmax=J - 1, m=m, plan=plan)
    return thresholded_estimator(frame, raw, rule, plan=plan)


def synthesis_box(frame, coeffs, *, plan=None):
    """The first half of synthesis: every live level's pixels mapped into one box spectrum.

    Levels of (K_j,) arrays or stacks with leading axes (R, K_j) or
    (C, R, K_j) give one box with the rows on a trailing axis, (2L+1,)*d +
    (rows,), L = plan.L; a single coefficient set is a stack of one. Each
    level with a nonzero coefficient in any row maps the pixels of every row
    to shell amplitudes T_l = sum_k c_k exp(-i l.xi_k) by one FFT over the
    stack and adds sqrt(lambda_j) (2pi)^-d b_l T_l at its shell; a row's
    dead levels add exact zeros, and a box with nothing live is all zeros.
    So box[l + L] is the coefficient of exp(i l.x) in the synthesized
    function, with no zero frequency: the spectrum box_values evaluates and
    every grid risk of a bench chunk reads. Also returns top, the highest
    level live in any row of the stack, -1 for none. plan is a
    _ReplicationPlan for this frame and number of levels, whatever its m and
    rules, since synthesis uses underived needlets; without one the call
    builds its own.
    """
    _check_structure(frame, coeffs)
    plan = plan or _ReplicationPlan(frame, None, coeffs.njlevels)  # underived needlets
    plan.check(frame, coeffs.njlevels)
    R = math.prod(coeffs.lead)
    live = [j for j, lv in enumerate(coeffs.levels) if lv.any()]
    box = np.zeros((2 * plan.L + 1,) * frame.d + (R,), dtype=complex)
    for j in live:
        cubes = coeffs.levels[j].reshape((R,) + (plan.npts[j],) * frame.d)
        T = _level_fft(cubes, frame.d)[(slice(None),) + plan.cube[j]]
        box[plan.gather[j]] += plan.synthesis[j][:, None] * T.T
    return box, max(live, default=-1)


def synthesize(frame, coeffs, grid, *, plan=None):
    """sum_{j,k} c_{j,k} psi_{j,k}(theta) over the grid points, for one coefficient set or a family.

    Synthesis always uses underived needlets; derivative content lives in the
    coefficients. grid is an (n, d) array (or anything `as_points` accepts),
    on or off any uniform grid. Levels of (K_j,) arrays give (n,) values;
    stacks with leading axes give those axes + (n,), every row in one pass:
    (R, K_j) gives (R, n) and (C, R, K_j), C replications of R rows, gives
    (C, R, n). Two halves: synthesis_box builds one box spectrum of every
    row, rows trailing, and the stack's top live level; box_values
    evaluates that box at the points. plan is as in synthesis_box.
    """
    return box_values(frame, *synthesis_box(frame, coeffs, plan=plan), grid, coeffs.lead)


def box_values(frame, box, top, grid, lead):
    """The second half of synthesis: a built (box, top) of synthesis_box evaluated at the points.

    The box is cut to the band of level top, |l_i| <= L', and evaluated at
    the points (frame._family_values, in chunks of rows); the values have
    shape lead + (n,), lead the leading shape of the coefficients the box
    was built from, and are all zeros when top is -1. A row whose own top
    level is lower is evaluated on that band zero-padded; on the grid this
    gives the bits of its own band (measured on OpenBLAS 0.3.31), so a row's
    values do not depend on the replications stacked beside it. Points that
    are exactly uniform_grid(G, d) for some G (same row count, same row
    order, equal coordinates; checked on every call) take the tensor-product
    form (grid_values), whose phase table has the 2L'+1 rows of the band
    alone; any other point set, shuffled or shifted grids included, takes
    spectrum_values.
    """
    points = as_points(grid, frame.d)
    shape = lead + (points.shape[0],)
    if top < 0:
        return np.zeros(shape)
    # the band of the top live level: the box cut to half-width L'
    L, half = (box.shape[0] - 1) // 2, box_half_width(frame.B, top)
    band = box[(slice(L - half, L + half + 1),) * frame.d]
    return _family_values(band, points, _uniform_grid_size(points)).reshape(shape)


def write_estimator_csv(est, path):
    """One row per coefficient: `j,k,raw,thresholded,tau`, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,k,raw,thresholded,tau\n")
        for j, (raw, kept, tau) in enumerate(zip(est.raw.levels, est.coeffs.levels, est.taus)):
            for k in range(raw.size):
                fh.write(f"{j},{k},{raw[k]:.17g},{kept[k]:.17g},{tau:.17g}\n")


def write_estimator_meta(est, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(est.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_input(path, parse=json.load):
    """parse(fh) of the file at path, opened once as UTF-8 text.

    Every input file (samples, coefficient CSV, meta and config JSON) is
    read through here, so bytes that are not UTF-8 and text that is not
    JSON are each one ValueError naming the file. An OSError (no such file,
    a directory) passes through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested to decode
            raise ValueError(f"{path}: not valid JSON ({exc})") from None


def read_estimator_csv(path):
    """Parse an estimator CSV back into level arrays in one pass.

    Returns (raw levels, thresholded levels, taus) as lists indexed by j.
    Rows may come in any order; gaps and repeats are rejected (dense_levels).
    """
    levels = dense_levels(path, read_input(path, lambda fh: _rows_by_level(fh, path)))
    return [lv[0] for lv in levels], [lv[1] for lv in levels], [float(lv[2][0]) for lv in levels]


def _rows_by_level(fh, path):
    """The rows of an estimator CSV text handle as {j: [(k, raw, thresholded, tau), ...]}."""
    by_level = {}
    header = fh.readline().strip()
    if header != "j,k,raw,thresholded,tau":
        raise ValueError(f"unexpected estimator CSV header {header!r} in {path}")
    for lineno, line in enumerate(fh, start=2):
        if line.strip():
            try:
                j_s, k_s, raw_s, kept_s, tau_s = line.strip().split(",")
                row = (int(k_s), float(raw_s), float(kept_s), float(tau_s))
                j = int(j_s)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno} is not a row j,k,raw,thresholded,tau "
                    "of two integers and three floats"
                ) from None
            by_level.setdefault(j, []).append(row)
    return by_level


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
