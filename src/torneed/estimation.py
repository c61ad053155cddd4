"""Empirical needlet coefficients and local-thresholding derivative estimators.

The m-th derivative of an unknown density f is estimated from an i.i.d.
sample by (a) averaging derivative needlets over the sample to get unbiased
coefficient estimates, (b) deleting or shrinking coefficients below a
level-dependent threshold, (c) synthesizing the survivors with underived
needlets.

Everything in these steps that does not depend on the sample (the per-level
indices and amplitudes, the thresholds tau_j = kappa B^(j|m|) sqrt(ln n / n)
of every rule, the evaluation points and their phase table) lives in one
_ReplicationPlan, built once per Monte Carlo run for (frame, m, J, rules,
points) and shared read-only by its replications; a single estimate builds a
plan of its own. Coefficients of all levels lie side by side in one flat
array (K_total,), or (R, K_total) for R threshold rules, and the per-level
arrays are views of it, so thresholding, survivor counting and the finite
check run once on the flat stack rather than once per level. A Monte Carlo
run stacks the raw coefficients of C replications as (C, K_total) and
thresholds, synthesizes and scores them as one (C, R, K_total) estimator.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .frame import (
    CoefficientArray,
    _axis_phases,
    _check_structure,
    _cube_index,
    _family_values,
    _grid_axis,
    _pixel_transform,
    _shell_transform,
    _uniform_grid_size,
    box_half_width,
    box_index,
    drop_imag,
    sample_spectrum,
    size_violations,
)
from .harmonics import TWO_PI, as_multi_index, as_points, derivative_multiplier


def as_sample_array(samples, d):
    """Coerce samples to a nonempty, finite (n, d) array of torus points.

    Angles are not reduced into [0, 2pi): every phase is 2pi-periodic, so a
    sample and its reduction give the same coefficients up to rounding.
    """
    pts = as_points(samples, d)
    if pts.shape[0] < 1:
        raise ValueError("sample set is empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError("samples contain non-finite values")
    return pts


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


class _ReplicationPlan:
    """Everything the replications of one run share, built once for (frame, m, J, rules, points).

    A Monte Carlo run builds one plan and passes it to empirical_coefficients,
    thresholded_estimator and synthesize; a call without one builds a
    one-use plan, so every estimate takes the same path. There is no cache:
    a plan lives as long as its caller keeps it. Its arrays are read-only,
    since replication threads share it. An order |m| whose thresholds or
    frequency powers overflow a float (size_violations) is refused before
    anything is built. For each level j < J:

    - cube[j], the level's FFT cube index, and npts[j], the cube's side;
    - gather[j], the shell's index in the box of half-width
      L = box_half_width(B, J-1), the box of the sample spectrum and of
      synthesis;
    - analysis[j] = b_l mult_l(m) and root_weight[j] = sqrt(lambda_j) (the
      sign and the 1/n of the sample join it per call), and synthesis[j] =
      sqrt(lambda_j) (2pi)^-d b_l;
    - slices[j], the columns of level j when the K_j coefficients of every
      level lie side by side in one flat array of `size` columns, and
      starts[j], the first of them.

    The thresholds: taus[i, j] = threshold_value(rules[i], j), and by_kind,
    per rule kind its row mask and the (R_kind, size) taus that one
    apply_threshold call on the flat raw coefficients takes. The points,
    when given: points, and when they are exactly uniform_grid(G, d), the
    (2L+1, G) phase table. A synthesis whose top live level has the
    half-width L' < L reads the rows L-L'..L+L' of the table, which hold
    the bits of a table built for L' (_axis_phases fills row l alike for
    every L >= l).
    """

    def __init__(self, frame, m, J, rules=(), points=None):
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
        self.size, self.starts = offsets[-1], np.array(offsets[:-1], dtype=np.int64)
        self.slices = tuple(map(slice, offsets[:-1], offsets[1:]))
        taus = [[threshold_value(rule, j) for j in range(J)] for rule in self.rules]
        self.taus = np.array(taus).reshape(len(self.rules), J)
        kinds = np.array([rule.kind for rule in self.rules])
        repeated = np.repeat(self.taus, sizes, axis=1)
        rows = {kind: kinds == kind for kind in kinds.tolist()}
        self.by_kind = tuple((kind, mask, repeated[mask]) for kind, mask in rows.items())
        self.points = None if points is None else as_points(points, frame.d).view()
        npts = None if points is None else _uniform_grid_size(self.points)
        self.table = None if npts is None else _axis_phases(_grid_axis(npts), self.L)
        _freeze(tuple(vars(self).values()))

    def check(self, frame, J, m=None, rules=None):
        """Refuse a plan built for another frame, number of levels, derivative order or rules."""
        if (frame, J, m or self.m, rules or self.rules) != (self.frame, self.J, self.m, self.rules):
            raise ValueError("the replication plan was built for another frame, J, m or rules")


def empirical_coefficients(frame, samples, jmax=None, m=None, *, plan=None):
    """Unbiased coefficient estimates beta^(m)_{j,k} from an i.i.d. sample.

        beta^(m)_{j,k} = ((-1)^|m| / n) sum_i psi^(m)_{j,k}(X_i)

    (derivative needlets are real, so the conjugate is dropped). The sample
    enters only through S_l = sum_i exp(i l . X_i), computed once on the box
    holding every shell up to jmax and reduced in a fixed block order, so it
    is deterministic for any thread count. Each level gathers its shell from
    S and maps it to pixels by FFT, into its slice of one flat array: the
    levels of the result are views of it (CoefficientArray.from_flat),
    checked for an imaginary residue and for finite values once. Levels
    0..jmax are produced; jmax = -1 gives none. plan, the run's
    _ReplicationPlan for this frame, m and jmax + 1 levels, supplies every
    per-level constant; without one the call builds its own.
    """
    if jmax is None:
        jmax = frame.jmax
    if jmax > frame.jmax:
        raise ValueError(f"jmax {jmax} exceeds frame jmax {frame.jmax}")
    m = as_multi_index(m, frame.d)
    plan = plan or _ReplicationPlan(frame, m, jmax + 1)
    plan.check(frame, jmax + 1, m)
    X = as_sample_array(samples, frame.d)
    n = X.shape[0]
    S = sample_spectrum(X, plan.L)
    raw = np.empty(plan.size, dtype=complex)
    for j, cols in enumerate(plan.slices):
        pixels = _pixel_transform(plan.analysis[j] * S[plan.gather[j]], plan.npts[j], plan.cube[j])
        scale = (-1.0) ** sum(m) / n * plan.root_weight[j] * TWO_PI ** (-frame.d)
        np.multiply(scale, pixels, out=raw[cols])
    return CoefficientArray.from_flat(m, drop_imag(raw, "empirical coefficients"), plan.slices)


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
    (thresholded_estimator sets it): survivors reads its level offsets, and
    evaluation at its points reuses their layout check and phase table.
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
        return np.add.reduceat(self.coeffs.flat != 0, self.plan.starts, axis=-1)

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
    flat = raw.flat
    if flat is None:
        flat = np.concatenate([np.zeros(raw.lead + (0,)), *raw.levels], axis=-1)
    kept = np.empty(flat.shape[:-1] + (len(rules), plan.size))
    for kind, rows, taus in plan.by_kind:
        kept[..., rows, :] = apply_threshold(kind, flat[..., None, :], taus)
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
    X = as_points(samples, frame.d)  # empirical_coefficients checks the values
    n = X.shape[0]
    if n < 3:
        raise ValueError("estimation needs n >= 3")
    if tuple(rule.m) != m:
        raise ValueError(f"rule is for m={rule.m}, estimator asked for m={m}")
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


def synthesize(frame, coeffs, grid, *, plan=None):
    """sum_{j,k} c_{j,k} psi_{j,k}(theta) over the grid points, for one coefficient set or a family.

    Synthesis always uses underived needlets; derivative content lives in the
    coefficients. grid is an (n, d) array (or anything `as_points` accepts),
    on or off any uniform grid. Levels of (K_j,) arrays give (n,) values;
    stacks with leading axes give those axes + (n,), every row in one pass:
    (R, K_j) gives (R, n) and (C, R, K_j), C replications of R rows, gives
    (C, R, n). Each level with a nonzero coefficient in any row maps the
    pixels of every row to shell amplitudes T_l = sum_k c_k exp(-i l.xi_k)
    by one FFT over the stack and adds sqrt(lambda_j) (2pi)^-d b_l T_l into
    one box spectrum with the family axis trailing, (2L+1,)*d + (rows,).
    Rows that share every leading index but the last (one replication's
    family) share a band: the half-width L' of their top live level. Rows
    of one band are evaluated together on the box cut to |l_i| <= L', at
    the points (frame._family_values, in chunks of rows), so a row's values
    do not depend on the other replications stacked beside it. Points that
    are exactly uniform_grid(G, d) for some G (same row count, same row
    order, equal coordinates) take the tensor-product form (grid_values);
    any other point set, shuffled or shifted grids included, takes
    spectrum_values. plan is a _ReplicationPlan for this frame and number
    of levels; it serves the points it was built for (grid is plan.points),
    which then skip the layout check and reuse the plan's phase table.
    Other points, or no plan, get a one-use plan.
    """
    _check_structure(frame, coeffs)
    if plan is None or grid is not plan.points:
        plan = _ReplicationPlan(frame, None, coeffs.njlevels, points=grid)  # underived needlets
    plan.check(frame, coeffs.njlevels)
    n = plan.points.shape[0]
    lead = coeffs.lead
    R, families = math.prod(lead), math.prod(lead[:-1])
    # live[j, f]: level j holds a nonzero coefficient in family f
    live = np.array(
        [lv.reshape(families, -1, lv.shape[-1]).any(axis=(1, 2)) for lv in coeffs.levels]
    )
    if not live.any():
        return np.zeros(lead + (n,))
    top = np.where(live.any(axis=0), len(live) - 1 - np.argmax(live[::-1], axis=0), -1)
    box = np.zeros((2 * plan.L + 1,) * frame.d + (R,), dtype=complex)
    for j in np.flatnonzero(live.any(axis=1)):
        T = _shell_transform(coeffs.levels[j].reshape(R, -1), plan.npts[j], plan.cube[j])
        box[plan.gather[j]] += plan.synthesis[j][:, None] * T.T
    values = None
    for t in sorted(set(top.tolist()) - {-1}):
        # the band of the top live level: a box of half-width L' and its table rows
        half = box_half_width(frame.B, t)
        band = slice(plan.L - half, plan.L + half + 1)
        table = None if plan.table is None else plan.table[band]
        fams = np.flatnonzero(top == t)
        family = box.reshape(box.shape[:-1] + (families, -1))[(band,) * frame.d + (fams,)]
        family = family.reshape(family.shape[: frame.d] + (-1,))
        part = _family_values(family, plan.points, table)
        if values is None:
            # allocated once the first band's complex values are gone: one
            # band peaks at them plus its real part, not plus the result too
            values = np.zeros(lead + (n,))
        values.reshape(families, -1, n)[fams] = part.reshape(fams.size, -1, n)
    return values


def write_estimator_csv(est, path):
    """One row per coefficient: `j,k,raw,thresholded,tau`, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,k,raw,thresholded,tau\n")
        for j, (raw, kept, tau) in enumerate(zip(est.raw.levels, est.coeffs.levels, est.taus)):
            for k in range(raw.size):
                fh.write(f"{j},{k},{raw[k]:.17g},{kept[k]:.17g},{tau:.17g}\n")


def write_estimator_meta(est, path):
    with open(path, "w", encoding="utf-8") as fh:
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
