"""Empirical needlet coefficients and local-thresholding derivative estimators.

The m-th derivative of an unknown density f is estimated from an i.i.d.
sample by (a) averaging derivative needlets over the sample to get unbiased
coefficient estimates, (b) deleting or shrinking coefficients below a
level-dependent threshold, (c) synthesizing the survivors with underived
needlets.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .frame import (
    CoefficientArray,
    _pixel_transform,
    box_half_width,
    box_index,
    dense_levels,
    drop_imag,
    sample_spectrum,
    synthesize,
)
from .harmonics import TWO_PI, as_multi_index, as_points, derivative_multiplier, wrap_angles


def as_sample_array(samples, d):
    """Coerce samples to an (n, d) array of torus points, wrapping into [0, 2pi)."""
    pts = as_points(samples, d)
    if pts.shape[0] < 1:
        raise ValueError("sample set is empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError("samples contain non-finite values")
    return wrap_angles(pts)


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
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.n < 3:
            raise ValueError("thresholds need n >= 3")
        if self.B <= 1:
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

    Vectorized over u; scalar in, scalar out.
    """
    if a < 0:
        raise ValueError("threshold must be nonnegative")
    arr = np.asarray(u, dtype=float)
    if kind == "hard":
        out = np.where(np.abs(arr) >= a, arr, 0.0)
    elif kind == "soft":
        out = np.sign(arr) * np.maximum(np.abs(arr) - a, 0.0)
    else:
        raise ValueError(f"unknown threshold kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def empirical_coefficients(frame, samples, jmax=None, m=None):
    """Unbiased coefficient estimates beta^(m)_{j,k} from an i.i.d. sample.

        beta^(m)_{j,k} = ((-1)^|m| / n) sum_i psi^(m)_{j,k}(X_i)

    (derivative needlets are real, so the conjugate is dropped). The sample
    enters only through S_l = sum_i exp(i l . X_i), computed once on the box
    holding every shell up to jmax and reduced in a fixed block order, so it
    is deterministic for any thread count. Each level gathers its shell from
    S and maps it to pixels by FFT. Levels 0..jmax are produced.
    """
    if jmax is None:
        jmax = frame.jmax
    if jmax > frame.jmax:
        raise ValueError(f"jmax {jmax} exceeds frame jmax {frame.jmax}")
    m = as_multi_index(m, frame.d)
    X = as_sample_array(samples, frame.d)
    n = X.shape[0]
    sign = (-1.0) ** sum(m)
    L = box_half_width(frame.B, jmax)
    S = sample_spectrum(X, L)
    levels = []
    for j in range(jmax + 1):
        lev = frame.level(j)
        mult = np.atleast_1d(derivative_multiplier(lev.freqs, m))
        amp = lev.bvals * mult * S[box_index(lev.freqs, L)]
        raw = _pixel_transform(lev, amp, sign=-1.0)
        scale = sign / n * math.sqrt(lev.cubature.weight) * TWO_PI ** (-frame.d)
        levels.append(drop_imag(scale * raw, what=f"empirical coefficients at level {j}"))
    return CoefficientArray(m, levels, "empirical")


@dataclasses.dataclass(eq=False)
class DerivativeEstimator:
    """Thresholded needlet estimator of the m-th density derivative.

    Holds raw and thresholded coefficients for levels 0..J-1 and the
    per-level thresholds actually applied. Evaluation synthesizes the
    thresholded coefficients with underived needlets; for m = 0 the caller
    adds the known mean 1/(2pi)^d back when a full density is wanted.
    """

    frame: object
    m: tuple
    rule: ThresholdRule
    J: int
    raw: CoefficientArray
    coeffs: CoefficientArray
    taus: tuple

    def evaluate(self, grid):
        return synthesize(self.frame, self.coeffs, grid)

    def surviving_counts(self):
        """Per level: (j, surviving, total, fraction of nonzero thresholded coefficients)."""
        rows = []
        for j, lv in enumerate(self.coeffs.levels):
            alive = int(np.count_nonzero(lv))
            rows.append((j, alive, lv.size, alive / lv.size if lv.size else 0.0))
        return rows

    def metadata(self):
        return {
            "B": self.frame.B,
            "d": self.frame.d,
            "m": list(self.m),
            "n": self.rule.n,
            "kappa": self.rule.kappa,
            "rule": self.rule.kind,
            "J": self.J,
        }


def estimate(frame, samples, m, rule, J_override=None):
    """Build the thresholded estimator from a sample.

    J is the rule-of-thumb truncation level unless J_override is given;
    levels 0..J-1 are estimated and thresholded with tau_{j} from the rule.
    """
    m = as_multi_index(m, frame.d)
    X = as_sample_array(samples, frame.d)
    n = X.shape[0]
    if n < 3:
        raise ValueError("estimation needs n >= 3")
    if tuple(rule.m) != m:
        raise ValueError(f"rule is for m={rule.m}, estimator asked for m={m}")
    if rule.n != n:
        raise ValueError(f"rule was built for n={rule.n}, sample has n={n}")
    J = J_override if J_override is not None else truncation_level(n, frame.d, sum(m), frame.B)
    if J > frame.jmax:
        raise ValueError(f"truncation level J={J} needs a frame with jmax >= {J}, got {frame.jmax}")
    if J < 1:
        empty = CoefficientArray(m, [], "empirical")
        return DerivativeEstimator(frame, m, rule, int(J), empty, empty, ())
    raw = empirical_coefficients(frame, X, jmax=J - 1, m=m)
    taus = tuple(threshold_value(rule, j) for j in range(J))
    kept = [apply_threshold(rule.kind, lv, taus[j]) for j, lv in enumerate(raw.levels)]
    coeffs = CoefficientArray(m, kept, "empirical")
    return DerivativeEstimator(frame, m, rule, int(J), raw, coeffs, taus)


def diagnostic_bandwidth(s, m_total, d, B, n, zone, r=None):
    """Resolution level an oracle tuned to smoothness s would pick.

    Regular zone: B^J ~ (n/ln n)^(1/(2(s+|m|)+d)). Sparse zone replaces the
    exponent denominator by 2(s+|m|+d(1/2-1/r)) and therefore needs r; it is
    meaningful for s > d/r. Diagnostic only; the estimator never uses it.
    """
    if s <= 0:
        raise ValueError("smoothness s must be positive")
    if n < 3:
        raise ValueError("need n >= 3")
    if zone == "regular":
        denom = 2 * (s + m_total) + d
    elif zone == "sparse":
        if r is None:
            raise ValueError("sparse zone needs the integrability index r")
        if s * r <= d:
            raise ValueError("sparse zone needs s > d/r")
        denom = 2 * (s + m_total + d * (0.5 - 1.0 / r))
    else:
        raise ValueError(f"unknown zone {zone!r}")
    return int(math.floor(math.log(n / math.log(n), B) / denom))


def write_estimator_csv(est, path):
    """One row per coefficient: `j,k,raw,thresholded,tau`, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,k,raw,thresholded,tau\n")
        for j in range(est.J):
            raw = est.raw.levels[j]
            kept = est.coeffs.levels[j]
            tau = est.taus[j]
            for k in range(raw.size):
                fh.write(f"{j},{k},{raw[k]:.17g},{kept[k]:.17g},{tau:.17g}\n")


def write_estimator_meta(est, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(est.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_estimator_csv(path):
    """Parse an estimator CSV back into level arrays in one pass.

    Returns (raw levels, thresholded levels, taus) as lists indexed by j.
    Rows may come in any order; gaps and repeats are rejected as in
    frame.dense_levels.
    """
    by_level = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "j,k,raw,thresholded,tau":
            raise ValueError(f"unexpected estimator CSV header {header!r} in {path}")
        for line in fh:
            if line.strip():
                j_s, k_s, raw_s, kept_s, tau_s = line.strip().split(",")
                row = (int(k_s), float(raw_s), float(kept_s), float(tau_s))
                by_level.setdefault(int(j_s), []).append(row)
    raw_levels, kept_levels, taus = [], [], []
    for raw, kept, tau in dense_levels(path, by_level):
        raw_levels.append(raw)
        kept_levels.append(kept)
        taus.append(float(tau[0]))
    return raw_levels, kept_levels, taus
