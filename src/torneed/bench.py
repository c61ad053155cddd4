"""Seeded Monte Carlo benchmark: estimate density derivatives, record risks.

One experiment draws R independent samples of size n from a named test
density. The replications run in chunks of C. A chunk allocates one
workspace before its first draw: a draw array, and the phase-table buffer
of frame.spectrum_buffer, within PHASE_BLOCK_BYTES in d >= 2 (the half
box's table heights, (L+1) + (L+1) in d = 2, times the rows of a block
sized to fit). For a law whose draw streams (TestDensity.streams: uniform
in any d and the wrapped normal) the draw array is one row block of the
sample spectrum, spectrum_block_shape(n, d, L) rows x d floats: each
replication draws its sample block by block into it (TestDensity.draw,
through a frame.RowStream), and each block is checked and reduced before
the next is drawn, so the workspace is bounded in bytes whatever n is. A
product fills factor-major, so it draws all its n x d floats into a flat
array first. Draws are unreduced: every phase of the sample spectrum is
2pi-periodic, so no replication wraps its draw into [0, 2pi). A
replication's sample spectrum on one box (frame.sample_spectrum), reduced
in the table buffer, is written into its row of the chunk's (C,) + box
stack; the next draw overwrites the draw array, so no replication
allocates an array of n rows, and the workspace is released before the
level map. The chunk then maps all its spectra to raw coefficients at
once, (C, K_total), through the
plan's level map (one scatter, FFT and scale per level over every row; the
second half of estimation.empirical_coefficients), thresholds them by
every (rule, kappa0) at once into one estimator with a (C, rows) leading
shape (one row per pair: same data, varying threshold), counts its
survivors and scores it with the run's one _Scorer. The scorer is built
once per run from the run's plan and the (p, method) columns the config
asks for, and lp_distance scores a single estimator through a one-column
scorer. It reads the frame, m, J, the box and the coefficient count from
the plan, checks that the grid resolves the box, centres the truth on the
grid once (less the density mean of estimation.with_density_mean for
m = 0) and builds one box spectrum of the chunk's estimator
(estimation.synthesis_box) that every grid column reads. The p = 2 grid
risk, the only one the paper's tables use, comes from that box by discrete
Parseval against the centred truth's DFT on the grid (truth_spectrum,
_l2_from_box); no grid values are formed for it. Any other exponent
evaluates the same box on the grid once (estimation.box_values,
_lp_from_values, the quadrature of frame.grid_lp_norm). C comes from a
fixed byte budget, CHUNK_BYTES, on the widest complex array a chunk scores
per row (the scorer's width, chunk_replications), which also bounds the
stack of sample spectra; it is no option, and it does not depend on the
thread count. With threads, the pool maps over chunks. A truth whose
derivative is not finite on the grid is refused at set-up
(densities.truth_on_grid).

The report holds arrays, key-major: surviving counts (members, J, R) and
risks (members, columns, R), each key's R draws contiguous and in
replication order, written by each chunk into its own replications'
slice. The aggregates reduce those rows; count_rows and risk_rows list the
same values as named tuples, replication-major, for the CSV and JSON files.

Reproducibility contract: every replication r derives its own RNG stream
from a documented integer hash of (master seed, r), and the chunks do not
depend on the thread count, so results are identical, bit for bit, whether
replications run serially or on any number of threads. A replication's
rows also do not depend on the chunk it lands in, so a longer run extends
a shorter one: the level map gives each row the bits of its replication
alone and refuses a row (an imaginary residue, an overflowing order) by
its own scale, each row's box risk is reduced along its own contiguous
row, each replication is synthesized on its chunk's top band, and a lone
row is never evaluated by a matrix-vector product (frame._family_values).
That part rests on the FFT giving each cube of a stack the bits of that
cube alone, the BLAS giving each row of a GEMM the same bits whatever the
row count, and a box zero-padded to a wider band the bits of its own band,
which no library promises; all three were measured with numpy's pocketfft
and OpenBLAS 0.3.31 on x86-64.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from .densities import density_from_name, truth_on_grid
from .estimation import (
    RefusedRow,
    _ReplicationPlan,
    analyze,
    apply_threshold,  # noqa: F401  (perfbench/spans.py wraps bench.apply_threshold)
    as_sample_array,
    box_values,
    calibrated_rule,
    empirical_coefficients,  # noqa: F401  (perfbench/spans.py wraps bench.empirical_coefficients)
    read_input,
    synthesis_box,
    thresholded_estimator,
    truncation_level,
    with_density_mean,
)
from .frame import (
    PHASE_BLOCK_BYTES,
    CoefficientArray,
    NeedletFrame,
    RowStream,
    _largest_magnitude,
    grid_lp_norm,
    min_grid_size,
    refuse_residue,
    sample_spectrum,
    size_violations,
    spectrum_block_shape,
    spectrum_buffer,
    uniform_grid,
)
from .harmonics import TWO_PI

# bytes of the widest complex array one chunk scores (_Scorer.width): 132 replications of the
# paper's 8 rows on its 31-column box, 15 of them on 257 grid points when p holds another exponent
CHUNK_BYTES = PHASE_BLOCK_BYTES // 8

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def child_seed(master, index):
    """SplitMix64 mix of (master seed, replication index); fixed, documented.

    child = splitmix64(master + (index+1) * 0x9E3779B97F4A7C15), all mod 2^64.
    Replication streams are therefore independent of execution order.
    """
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class ConfigError(ValueError):
    """Raised with every schema violation listed at once."""


_RISK_METHODS = ("grid-quadrature", "coefficient-proxy", "both")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    density: str
    d: int
    B: float
    m: tuple
    n: int
    replications: int
    kappa0: tuple
    rules: tuple
    J: object  # int or "auto"
    grid: int
    p: tuple
    seed: int
    risk_method: str
    literal_paper_kappa: bool

    def resolved_J(self):
        if self.J == "auto":
            return truncation_level(self.n, self.d, sum(self.m), self.B)
        return int(self.J)

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["m"] = list(self.m)
        out["kappa0"] = list(self.kappa0)
        out["rules"] = list(self.rules)
        out["p"] = ["inf" if math.isinf(v) else v for v in self.p]
        return out


_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(ExperimentConfig))


def _norm_p(value):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"bad exponent {value!r}")
    return float(value)


def config_from_dict(data):
    """Validate a config mapping, reporting every violation at once."""
    errors = []
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    for key in sorted(set(data) - set(_CONFIG_KEYS)):
        errors.append(f"unknown key {key!r}")
    for key in (k for k in _CONFIG_KEYS if k not in data):
        errors.append(f"missing key {key!r}")

    def _get(key, kind, check=None, why=""):
        if key not in data:
            return None
        value = data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                errors.append(f"{key} {why}")
                return None
        bad_type = not isinstance(value, kind) or (isinstance(value, bool) and kind is int)
        if bad_type or (check is not None and not check(value)):
            errors.append(f"{key} {why}")
            return None
        return value

    density = _get("density", str, lambda v: bool(v.strip()), "must be a nonempty name")
    d = _get("d", int, lambda v: v >= 1, "must be a positive integer")
    B = _get("B", float, lambda v: 1 < v < math.inf, "must be finite and exceed 1")
    n = _get("n", int, lambda v: v >= 3, "must be at least 3")
    reps = _get("replications", int, lambda v: v >= 1, "must be at least 1")
    grid = _get("grid", int, lambda v: v >= 1, "must be a positive integer")
    seed = _get("seed", int, lambda v: v >= 0, "must be a nonnegative integer")
    method = _get("risk_method", str, lambda v: v in _RISK_METHODS, f"must be one of {_RISK_METHODS}")
    literal = data.get("literal_paper_kappa")
    if "literal_paper_kappa" in data and not isinstance(literal, bool):
        errors.append("literal_paper_kappa must be a boolean")
        literal = None

    m = None
    if "m" in data:
        raw_m = data["m"]
        if isinstance(raw_m, int) and not isinstance(raw_m, bool):
            raw_m = [raw_m]
        if not isinstance(raw_m, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in raw_m
        ):
            errors.append("m must be a list of nonnegative integers")
        elif d is not None and len(raw_m) != d:
            errors.append(f"m must have d={d} entries")
        else:
            m = tuple(raw_m)

    kappa0 = None
    if "kappa0" in data:
        raw = data["kappa0"]
        # the largest double bounds out inf, nan and integers too large for a float
        if not isinstance(raw, list) or not raw or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= sys.float_info.max
            for v in raw
        ):
            errors.append("kappa0 must be a nonempty list of positive finite numbers")
        else:
            kappa0 = tuple(float(v) for v in raw)

    rules = None
    if "rules" in data:
        raw = data["rules"]
        if not isinstance(raw, list) or not raw or not all(v in ("hard", "soft") for v in raw):
            errors.append('rules must be a nonempty list drawn from ["hard", "soft"]')
        else:
            rules = tuple(raw)

    J = None
    if "J" in data:
        raw = data["J"]
        if raw == "auto" or (isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0):
            J = raw
        else:
            errors.append('J must be "auto" or a nonnegative integer')

    p = None
    if "p" in data:
        raw = data["p"]
        try:
            if not isinstance(raw, list) or not raw:
                raise ValueError
            p = tuple(_norm_p(v) for v in raw)
            if any(v < 1 for v in p):
                raise ValueError
        except (ValueError, TypeError, OverflowError):
            errors.append('p must be a nonempty list of exponents >= 1 (or "inf")')
            p = None

    # rows are keyed by (rule, kappa0, p); a repeat (1 and 1.0 are one) pools copies as draws
    for name, values in (("kappa0", kappa0), ("rules", rules), ("p", p)):
        repeats = [v for v, count in Counter(values or ()).items() if count > 1]
        errors.extend(f"{name} lists {v!r} more than once" for v in repeats)
    if method == "coefficient-proxy" and p is not None and any(v != 2 for v in p):
        errors.append("coefficient-proxy risk is defined for p = 2 only")
    if method == "both" and p is not None and 2 not in p:
        errors.append('risk_method "both" needs 2 in p: the coefficient proxy is a p = 2 risk')
    band = None
    if density is not None and d is not None:
        try:
            band = density_from_name(density, d).band_limit
        except ValueError as exc:
            errors.append(str(exc))
    if None not in (n, d, m, B, J, grid):
        try:
            j_resolved = truncation_level(n, d, sum(m), B) if J == "auto" else J
        except OverflowError:
            errors.append(f"J={J} with B={B:g} overflows a float (in n / ln n or B**J)")
        else:
            # the coefficient proxy analyzes the density on levels 0..J-1
            proxy = method in ("coefficient-proxy", "both")
            sizes = size_violations(B, d, j_resolved, grid, band if proxy else None, sum(m))
            min_grid = 0 if sizes else min_grid_size(B, j_resolved)  # no grid resolves a refused run
            if grid < min_grid:
                errors.append(f"grid must be at least {min_grid} to resolve J={j_resolved} levels")
            errors.extend(sizes)

    if errors:
        raise ConfigError("invalid experiment config:\n  - " + "\n  - ".join(errors))
    return ExperimentConfig(
        density, d, B, m, n, reps, kappa0, rules, J, grid, p, seed, method, literal
    )


def load_config(path):
    return config_from_dict(read_input(path))


class CountRow(NamedTuple):
    rule: str
    kappa0: float
    replication: int
    j: int
    surviving: int
    total: int
    fraction: float


class RiskRow(NamedTuple):
    rule: str
    kappa0: float
    replication: int
    p: float
    risk: float
    method: str


@dataclasses.dataclass
class RiskReport:
    """Everything one experiment produced, key-major, ordered deterministically.

    members are the estimator rows' (kappa0, rule) pairs, kappa0 outer, and
    columns the (p, method) pairs scored (risk_columns). surviving holds the
    (members, J, R) surviving counts per level and risks the (members,
    columns, R) risks: the R draws of every key are contiguous and in
    replication order, so each aggregate reduces one contiguous 1-d row.
    totals holds the J level sizes K_j that the counts are out of, as the
    run's plan has them. count_rows and risk_rows list the same values as
    rows, built on demand.
    """

    config: ExperimentConfig
    members: tuple
    columns: tuple
    surviving: np.ndarray
    risks: np.ndarray
    child_seeds: tuple
    totals: tuple

    @property
    def count_rows(self):
        """One CountRow per (replication, member, level), replication-major."""
        return [
            CountRow(kind, k0, r, j, kept, total, kept / total)
            for r, alive in enumerate(self.surviving.transpose(2, 0, 1).tolist())
            for (k0, kind), levels in zip(self.members, alive)
            for j, (kept, total) in enumerate(zip(levels, self.totals))
        ]

    @property
    def risk_rows(self):
        """One RiskRow per (replication, member, column), replication-major."""
        return [
            RiskRow(kind, k0, r, p, risk, method)
            for r, risks in enumerate(self.risks.transpose(2, 0, 1).tolist())
            for (k0, kind), values in zip(self.members, risks)
            for (p, method), risk in zip(self.columns, values)
        ]

    def _by_rule(self, draws):
        """(rule, kappa0, that member's draws) in config order, rule outer; none for R = 0."""
        rows = dict(zip(self.members, draws))
        keys = itertools.product(self.config.rules, self.config.kappa0) if draws.shape[-1] else ()
        return [(kind, k0, rows[k0, kind]) for kind, k0 in keys]

    def risk_aggregates(self):
        """Mean and standard error per (method, rule, kappa0, p), config order."""
        R, out = self.risks.shape[-1], []
        methods = ("grid-quadrature", "coefficient-proxy")
        for method, (kind, k0, draws) in itertools.product(methods, self._by_rule(self.risks)):
            for (p, how), vals in zip(self.columns, draws):
                if how == method:
                    stderr = float(np.std(vals, ddof=1) / math.sqrt(R)) if R > 1 else 0.0
                    stats = {"mean": float(np.mean(vals)), "stderr": stderr, "replications": R}
                    ptag = "inf" if math.isinf(p) else p
                    out.append({"method": method, "rule": kind, "kappa0": k0, "p": ptag, **stats})
        return out

    def count_aggregates(self):
        """Mean surviving fraction per (rule, kappa0, j), config order."""
        fractions = self.surviving / np.array(self.totals)[:, None]
        return [
            {"rule": kind, "kappa0": k0, "j": j, "mean_fraction": float(np.mean(vals))}
            for kind, k0, levels in self._by_rule(fractions)
            for j, vals in enumerate(levels)
        ]


def risk_columns(config):
    """The (p, method) pairs a run scores: the grid exponents in config order, then the proxy."""
    method = config.risk_method
    grid = [] if method == "coefficient-proxy" else [(p, "grid-quadrature") for p in config.p]
    return tuple(grid + ([] if method == "grid-quadrature" else [(2.0, "coefficient-proxy")]))


def truth_spectrum(centred, d, grid_per_dim, L):
    """The centred truth's DFT on uniform_grid(G, d), split at the box |l_i| <= L: (inside, outside).

    T = fftn(centred) / G^d, where centred is the truth on the grid in
    uniform_grid's row order with the density mean taken off for m = 0, as
    _Scorer holds it (the box, like every needlet, has no zero frequency).
    inside is T at every box frequency l (cube index l mod G, distinct
    since G >= 2L+1, which _Scorer checks), flat in the box's row-major
    order; outside is sum |T|^2 over the other G^d - (2L+1)^d indices,
    summed over that complement: total minus inside could round below zero.
    """
    spectrum = np.fft.fftn(centred.reshape((grid_per_dim,) * d)) / grid_per_dim**d
    box = np.ix_(*[np.arange(-L, L + 1) % grid_per_dim] * d)
    rest = np.ones(spectrum.shape, dtype=bool)
    rest[box] = False
    return spectrum[box].reshape(-1), float(np.sum(np.square(spectrum[rest].view(float))))


def _l2_from_box(box, truth, d):
    """(R,) grid L^2 distances of R box spectra (2L+1,)*d + (R,) to the truth, by discrete Parseval.

    On uniform_grid(G, d) with G >= 2L+1, the quadrature of _lp_from_values
    at p = 2 is exactly

        (2pi/G)^d sum_x |e(x) - t(x)|^2
            = (2pi)^d (sum_{l in box} |E_l - T_l|^2 + sum_{l not in box} |T_l|^2),

    E the box (the estimator's DFT on the grid) and (T inside, T outside)
    = truth, from truth_spectrum. No grid values are formed. Each row is
    moved to a contiguous last axis and reduced there, so its risk does not
    depend on the rows beside it. The box is checked first: the estimator is
    real exactly when E_{-l} = conj(E_l), so the largest |E_l - conj(E_{-l})|
    is refused by refuse_residue against the largest |E_l|, as an imaginary
    residue of the values would be.
    """
    inside, outside = truth
    rows = np.array(box.reshape(-1, box.shape[-1]).T, order="C")  # a copy, even of one row
    # l -> -l reverses every box axis, so the row-major index runs backwards;
    # in place, since numpy's temporary-elision check on a binary op of large
    # temporaries costs more than the arithmetic here
    odd = np.conjugate(rows[:, ::-1], order="C")
    odd -= rows
    refuse_residue(_largest_magnitude(odd), rows, "the box spectrum")
    rows -= inside
    parts = rows.view(float)
    energy = np.sum(np.square(parts, out=parts), axis=-1)
    return np.sqrt(TWO_PI**d * (energy + outside))


def _lp_from_values(est_vals, truth_vals, p, d, grid_per_dim):
    """Grid L^p distance (grid_lp_norm) on the last axis: a scalar for (G^d,), (R,) for (R, G^d)."""
    return grid_lp_norm(np.abs(est_vals - truth_vals), p, d, grid_per_dim)


def _proxy_distance(kept, true_coeffs):
    """l2 distance of thresholded to true coefficients, level by level, per row of kept's stacks."""
    total = 0.0
    for lv, true in zip(kept.levels, true_coeffs.levels):
        total = total + np.sum((lv - true) ** 2, axis=-1)
    return np.sqrt(total)


class _Scorer:
    """Risks of estimators against one truth, one per (p, method) column; built once per run.

    Everything about the run it scores comes from the run's
    _ReplicationPlan: the frame, m, J, the box half-width plan.L and the
    coefficient count plan.size. A grid column needs G >= 2 plan.L + 1
    points per axis to resolve the estimator's band; the scorer refuses a
    smaller G (config_from_dict refuses such a config before it). It builds
    only what its columns need: the grid and the centred truth on it for a
    grid column, the centred truth's DFT split at the box (truth_spectrum)
    for p = 2 on the grid, and the truth's coefficients on levels 0..J-1
    (analyze, through the plan) for the coefficient proxy. The truth is
    centred once, here: its derivative on the grid (truth_on_grid) less the
    density mean that estimation.with_density_mean adds for m = 0, since the
    estimator's box spectrum has no zero frequency. Comparing zero-mean
    values with it, rather than adding the mean to them, keeps a risk that
    is exactly zero on the grid (a uniform truth, nothing surviving) exactly
    zero. width is the complex columns per estimator row that a chunk scores
    at once, the widest of those arrays: the G^d grid values when some grid
    exponent is not 2, the (2L+1)^d box when the grid risk is p = 2 alone,
    the plan's coefficients for the proxy alone; run_experiment sizes its
    chunks by it (chunk_replications). Called on an estimator, it gives
    est.coeffs.lead + (columns,) risks from one box spectrum of the
    estimator (synthesis_box) when a grid column is asked for: p = 2 by
    discrete Parseval on the box (_l2_from_box), every other p from the
    box's values on the grid (box_values, once for all such columns,
    _lp_from_values), and the proxy by _proxy_distance.
    """

    def __init__(self, plan, truth, G, columns):
        self.columns, self.G, self.d, self.grid = tuple(columns), G, plan.frame.d, None
        grid_ps = [p for p, method in self.columns if method == "grid-quadrature"]
        self.width = plan.size  # the proxy alone scores the coefficients
        if grid_ps:
            if G < 2 * plan.L + 1:
                raise ValueError(
                    f"grid {G} cannot resolve the estimator band (needs >= {2 * plan.L + 1})"
                )
            self.grid = uniform_grid(G, self.d)
            # 0.0 plus the mean is the mean's bits; m != 0 subtracts 0.0, keeping -0.0
            self.centred = truth_on_grid(truth, plan.m, self.grid) - with_density_mean(0.0, plan.m)
        if 2 in grid_ps:
            self.truth_box = truth_spectrum(self.centred, self.d, G, plan.L)
            self.width = self.truth_box[0].size  # p = 2 alone scores the box
        if any(p != 2 for p in grid_ps):
            self.width = len(self.grid)  # any other exponent scores the grid values
        if len(grid_ps) < len(self.columns):
            self.true_coeffs = analyze(plan.frame, truth, plan.m, jmax=plan.J - 1, plan=plan)

    def __call__(self, est):
        lead, values = est.coeffs.lead, None
        if self.grid is not None:  # one box for every grid column
            box, top = synthesis_box(est.frame, est.coeffs, plan=est.plan)
        risks = np.empty(lead + (len(self.columns),))
        for c, (p, method) in enumerate(self.columns):
            if method == "coefficient-proxy":
                risks[..., c] = _proxy_distance(est.coeffs, self.true_coeffs)
            elif p == 2:
                risks[..., c] = _l2_from_box(box, self.truth_box, self.d).reshape(lead)
            else:
                values = box_values(est.frame, box, top, self.grid, lead) if values is None else values
                risks[..., c] = _lp_from_values(values, self.centred, p, self.d, self.G)
        return risks


def lp_distance(est, truth, p, grid_size, method="grid-quadrature"):
    """Distance between a single estimator and the true m-th derivative.

    grid-quadrature: ((2pi)^d/G^d sum |est - truth|^p)^(1/p) on the uniform
    G-per-dimension grid (max for p = inf). coefficient-proxy: the l2 norm of
    the coefficient differences over levels < J (p = 2 only). For m = 0 the
    estimator is the full density (DerivativeEstimator.evaluate adds the
    mean); its zero-mean values are scored against the centred truth, which
    is the same distance. The distance is the one column of a _Scorer built
    on the estimator's plan (a one-use _ReplicationPlan for an estimator
    built without one), which also refuses a grid that does not resolve the
    estimator's band: p = 2 on the grid is taken by discrete Parseval on the
    estimator's box spectrum without evaluating the estimator, and every
    other p evaluates that box on the grid.
    run_experiment scores every row of a chunk's estimator through the same
    scorer, so a row's risks are this distance for its rule on that
    replication's sample.
    """
    if method not in ("grid-quadrature", "coefficient-proxy"):
        raise ValueError(f"unknown risk method {method!r}")
    if method == "coefficient-proxy" and p != 2:
        raise ValueError("coefficient-proxy risk is defined for p = 2 only")
    plan = est.plan or _ReplicationPlan(est.frame, est.m, est.J)
    return float(_Scorer(plan, truth, grid_size, [(p, method)])(est)[0])


def chunk_replications(rows, width):
    """Replications scored together: their complex values, rows x width each, fit CHUNK_BYTES.

    rows is a replication's estimator rows; width is the run's scorer's
    columns per row (_Scorer.width). Never below one.
    """
    return max(1, CHUNK_BYTES // (16 * rows * max(width, 1)))


def _draw_workspace(density, n, L):
    """A chunk's draw workspace: one sample_spectrum row block if the law streams, else n rows.

    The rows are spectrum_block_shape(n, d, L)'s, so a replication of a law
    that streams (TestDensity.streams) holds at most one block of its sample
    whatever n is; any other law fills all n rows of its draw at once.
    """
    rows = spectrum_block_shape(n, density.d, L)[0] if density.streams else n
    return np.empty(rows * density.d)


def _drawn(density, rng, n, work):
    """A replication's n points for sample_spectrum, drawn into work and checked (as_sample_array).

    A law that streams gives a RowStream whose every block is drawn into the
    front of work when sample_spectrum asks for it, so the draw, the check
    and the reduction go block by block in one pass; any other law draws and
    checks all n rows first.
    """
    d = density.d
    if density.streams:
        return RowStream((n, d), lambda b: as_sample_array(density.draw(rng, work[: b * d]), d))
    return as_sample_array(density.draw(rng, work), d)


def run_experiment(config, threads=1):
    """Execute the Monte Carlo protocol; deterministic for a given master seed."""
    density = density_from_name(config.density, config.d)
    J = config.resolved_J()
    frame = NeedletFrame(config.B, config.d, jmax=max(J - 1, 0))
    m = config.m
    # one estimator row per member, kappa0 outer: the order its rows are emitted in
    members = tuple((k0, kind) for k0 in config.kappa0 for kind in config.rules)
    literal = config.literal_paper_kappa
    rules = [
        calibrated_rule(kind, k0, density.sup_norm, frame.window, m, config.n, config.B, literal)
        for k0, kind in members
    ]
    # every replication shares one plan (per-level constants, thresholds) and one scorer
    plan = _ReplicationPlan(frame, m, J, rules)
    columns = risk_columns(config)
    scorer = _Scorer(plan, density, config.grid, columns)
    # refused before any replication runs, so a refused run writes nothing
    plan.refuse_sample_overflow(config.n)
    R = config.replications
    # key-major: each chunk fills its own replications' slice of every key's row
    surviving = np.empty((len(members), J, R), dtype=np.int64)
    risks = np.empty((len(members), len(columns), R))

    def one_chunk(reps):
        # each replication draws and reduces its sample to one spectrum inside
        # the chunk's one workspace, in its row of the chunk's stack; the level
        # map then runs once for the whole stack
        spectra = np.empty((len(reps),) + (2 * plan.L + 1,) * config.d, dtype=complex)
        n, r = config.n, reps[0]  # a failed allocation names the first replication
        try:
            work = _draw_workspace(density, n, plan.L)
            tables = spectrum_buffer(n, config.d, plan.L)
            for i, r in enumerate(reps):
                rng = np.random.default_rng(child_seed(config.seed, r))
                spectra[i] = sample_spectrum(_drawn(density, rng, n, work), plan.L, buffer=tables)
        except Exception as exc:
            raise RuntimeError(f"replication {r} failed: {exc}") from exc
        del work, tables  # released before the level map, as the stack is after it
        try:
            raws = plan.sample_coefficients(spectra, n)
        except RefusedRow as exc:
            raise RuntimeError(f"replication {reps[exc.row]} failed: {exc}") from exc
        del spectra
        try:
            raw = CoefficientArray.from_flat(m, raws, plan.slices)
            est = thresholded_estimator(frame, raw, rules, plan=plan)
            surviving[..., reps.start : reps.stop] = np.moveaxis(est.survivors(), 0, -1)
            risks[..., reps.start : reps.stop] = np.moveaxis(scorer(est), 0, -1)
        except Exception as exc:
            first, last = reps[0], reps[-1]
            which = f"replication {first}" if first == last else f"replications {first}-{last}"
            raise RuntimeError(f"{which} failed: {exc}") from exc

    size = chunk_replications(len(members), scorer.width)
    chunks = [range(start, min(start + size, R)) for start in range(0, R, size)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a threaded run pays its import

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_chunk, chunks))  # raises the first failing chunk's error
    else:
        for reps in chunks:
            one_chunk(reps)
    seeds = tuple(child_seed(config.seed, r) for r in range(R))
    totals = tuple(cols.stop - cols.start for cols in plan.slices)
    return RiskReport(config, members, columns, surviving, risks, seeds, totals)


def _fmt(value):
    return f"{value:.17g}"  # "inf" for an infinite p


def _count_fields(row):
    return f"{row.j},{row.surviving},{row.total},{_fmt(row.fraction)}"


def _risk_fields(row):
    return f"{_fmt(row.p)},{_fmt(row.risk)}"


def _csv_field(text):
    """text as one RFC 4180 field: quoted, inner quotes doubled, when it holds , " CR or LF."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, config, fields, rows, rest):
    """One bench CSV: the run's density, n and m, each row's rule, kappa0 and replication, rest(row)."""
    lead = f"{_csv_field(config.density)},{config.n},{';'.join(str(v) for v in config.m)},"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"density,n,m,rule,kappa0,replication,{fields}\n")
        fh.writelines(f"{lead}{r.rule},{_fmt(r.kappa0)},{r.replication},{rest(r)}\n" for r in rows)


def emit_report(report, destination):
    """Write the report's CSVs and JSON under the destination directory.

    bench_counts.csv, bench_risks.csv (the grid risks, or the proxy risks
    of a proxy-only run), bench_risks_proxy.csv when both risk methods ran,
    and bench_report.json mirroring rows, aggregates, config, and seed
    provenance. Each list of rows is built once, for its CSVs and the JSON.
    """
    os.makedirs(destination, exist_ok=True)
    cfg, counts, risks = report.config, report.count_rows, report.risk_rows
    path = os.path.join(destination, "bench_counts.csv")
    _write_csv(path, cfg, "j,surviving,total,fraction", counts, _count_fields)
    primary = cfg.risk_method if cfg.risk_method == "coefficient-proxy" else "grid-quadrature"
    files = [("bench_risks.csv", primary)]
    files += [("bench_risks_proxy.csv", "coefficient-proxy")] if cfg.risk_method == "both" else []
    for name, method in files:
        rows = (r for r in risks if r.method == method)
        _write_csv(os.path.join(destination, name), cfg, "p,risk", rows, _risk_fields)
    payload = {
        "config": cfg.to_dict(),
        "child_seeds": [str(s) for s in report.child_seeds],
        "counts": [row._asdict() for row in counts],
        "risks": [{**row._asdict(), "p": "inf" if math.isinf(row.p) else row.p} for row in risks],
        "aggregates": {
            "risks": report.risk_aggregates(),
            "counts": report.count_aggregates(),
        },
    }
    path = os.path.join(destination, "bench_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
