"""Seeded Monte Carlo benchmark: estimate density derivatives, record risks.

One experiment draws R independent samples of size n from a named test
density. Each replication draws its sample and reduces it to one set of
empirical coefficients, and the sample is freed before the next draw. The
replications are scored in chunks: the raw coefficients of a chunk, stacked
as (C, K_total), are thresholded by every (rule, kappa0) at once into one
estimator with a (C, rows) leading shape (one row per pair: same data,
varying threshold) and scored together: surviving counts and L^p risks.
The p = 2 grid risk, the only one the paper's tables use, comes from the
estimator's box spectrum (estimation.synthesis_box) by discrete Parseval
against the truth's DFT on the grid, built once per run (truth_spectrum,
_l2_from_box); no grid values are formed for it. Any other exponent
synthesizes the chunk on the grid (_lp_from_values). C comes from a fixed
byte budget, CHUNK_BYTES, on the widest complex array a chunk scores per
row (chunk_width, chunk_replications); it is no option, and it does not
depend on the thread count. With threads, the pool maps over chunks.

Reproducibility contract: every replication r derives its own RNG stream
from a documented integer hash of (master seed, r), and the chunks do not
depend on the thread count, so results are identical, bit for bit, whether
replications run serially or on any number of threads. A replication's
rows also do not depend on the chunk it lands in, so a longer run extends
a shorter one: each row's box risk is reduced along its own contiguous
row, each replication is synthesized on its chunk's top band, and a lone
row is never evaluated by a matrix-vector product (frame._family_values).
That part rests on the BLAS giving each row of a GEMM the same bits
whatever the row count, and a box zero-padded to a wider band the bits of
its own band, which no library promises; both were measured on OpenBLAS
0.3.31 on a Haswell-class CPU.
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

from .densities import density_from_name
from .estimation import (
    _ReplicationPlan,
    analyze,
    apply_threshold,  # noqa: F401  (perfbench/spans.py wraps bench.apply_threshold)
    calibrated_rule,
    empirical_coefficients,
    read_input,
    synthesis_box,
    thresholded_estimator,
    truncation_level,
)
from .frame import (
    PHASE_BLOCK_BYTES,
    CoefficientArray,
    NeedletFrame,
    _largest_magnitude,
    box_half_width,
    cubature_size,
    min_grid_size,
    refuse_residue,
    size_violations,
    uniform_grid,
)
from .harmonics import TWO_PI

# bytes of the widest complex array one chunk scores (chunk_width): 132 replications of the
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
    """Everything one experiment produced, ordered deterministically."""

    config: ExperimentConfig
    count_rows: list
    risk_rows: list
    child_seeds: tuple

    def risk_aggregates(self):
        """Mean and standard error per (method, rule, kappa0, p), config order."""
        draws = {}
        for r in self.risk_rows:
            draws.setdefault((r.method, r.rule, r.kappa0, r.p), []).append(r.risk)
        cfg, out = self.config, []
        methods = ("grid-quadrature", "coefficient-proxy")
        for method, kind, k0, p in itertools.product(methods, cfg.rules, cfg.kappa0, cfg.p):
            vals = draws.get((method, kind, k0, p))
            if vals:
                n = len(vals)
                stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                stats = {"mean": float(np.mean(vals)), "stderr": stderr, "replications": n}
                ptag = "inf" if math.isinf(p) else p
                out.append({"method": method, "rule": kind, "kappa0": k0, "p": ptag, **stats})
        return out

    def count_aggregates(self):
        """Mean surviving fraction per (rule, kappa0, j), config order."""
        draws = {}
        for r in self.count_rows:
            draws.setdefault((r.rule, r.kappa0, r.j), []).append(r.fraction)
        means = {key: float(np.mean(vals)) for key, vals in draws.items()}
        levels = sorted({j for _, _, j in means})
        keys = itertools.product(self.config.rules, self.config.kappa0, levels)
        return [
            {"rule": kind, "kappa0": k0, "j": j, "mean_fraction": means[kind, k0, j]}
            for kind, k0, j in keys
            if (kind, k0, j) in means
        ]


def truth_spectrum(truth_vals, m, grid_per_dim, L):
    """The truth's DFT on uniform_grid(G, d), split at the box |l_i| <= L: (inside, outside).

    T = fftn(t - mu) / G^d, where t is truth_vals in uniform_grid's row
    order and mu the density mean (2pi)^-d for m = 0 (else 0): synthesis_box
    holds no zero frequency, and with_density_mean adds the mean to the
    estimator's values. Comparing against t - mu rather than adding mu to
    the box keeps a risk that is exactly zero on the grid (a uniform truth,
    nothing surviving) exactly zero. inside is T at every box frequency l
    (cube index l mod G, distinct since G >= 2L+1), flat in the box's
    row-major order; outside is sum |T|^2 over the other G^d - (2L+1)^d
    indices, summed over that complement: total minus inside could round
    below zero.
    """
    d = len(m)
    if grid_per_dim < 2 * L + 1:
        raise ValueError(f"grid {grid_per_dim} cannot resolve the box of half-width {L}")
    centred = truth_vals - TWO_PI ** (-d) if sum(m) == 0 else truth_vals
    spectrum = np.fft.fftn(centred.reshape((grid_per_dim,) * d)) / grid_per_dim**d
    box = np.ix_(*[np.arange(-L, L + 1) % grid_per_dim] * d)
    inside = spectrum[box].reshape(-1)
    rest = np.ones(spectrum.shape, dtype=bool)
    rest[box] = False
    return inside, float(np.sum(np.square(spectrum[rest].view(float))))


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
    """Grid L^p distance along the last axis: a scalar for (G^d,) values, (R,) for (R, G^d)."""
    diff = np.abs(est_vals - truth_vals)
    if math.isinf(p):
        return np.max(diff, axis=-1, initial=0.0)
    cell = (TWO_PI / grid_per_dim) ** d
    return (cell * np.sum(diff**p, axis=-1)) ** (1.0 / p)


def _proxy_distance(kept, true_coeffs):
    """l2 distance of thresholded to true coefficients, level by level, per row of kept's stacks."""
    total = 0.0
    for lv, true in zip(kept.levels, true_coeffs.levels):
        total = total + np.sum((lv - true) ** 2, axis=-1)
    return np.sqrt(total)


def lp_distance(est, truth, p, grid_size, method="grid-quadrature"):
    """Distance between a single estimator and the true m-th derivative.

    grid-quadrature: ((2pi)^d/G^d sum |est - truth|^p)^(1/p) on the uniform
    G-per-dimension grid (max for p = inf). coefficient-proxy: the l2 norm of
    the coefficient differences over levels < J (p = 2 only). For m = 0 the
    estimator includes the density mean (DerivativeEstimator.evaluate).
    p = 2 on the grid is taken by discrete Parseval on the estimator's box
    spectrum (synthesis_box, _l2_from_box) without evaluating the estimator;
    every other p synthesizes it on the grid (_lp_from_values).
    run_experiment scores every row of a replication's estimator through the
    same kernels: a row's proxy risk is this distance for its rule on that
    replication's sample, and its grid risks are too, up to the rounding of
    synthesizing all rows in one pass.
    """
    d = est.frame.d
    if method == "coefficient-proxy":
        if p != 2:
            raise ValueError("coefficient-proxy risk is defined for p = 2 only")
        return float(_proxy_distance(est.coeffs, analyze(est.frame, truth, est.m, jmax=est.J - 1)))
    if method != "grid-quadrature":
        raise ValueError(f"unknown risk method {method!r}")
    min_grid = min_grid_size(est.frame.B, est.J)
    if grid_size < min_grid:
        raise ValueError(f"grid {grid_size} cannot resolve the estimator band (needs >= {min_grid})")
    grid = uniform_grid(grid_size, d)
    truth_vals = truth.derivative(est.m, grid[:, 0] if d == 1 else grid)
    if p == 2:
        box, _ = synthesis_box(est.frame, est.coeffs, plan=est.plan)
        L = (box.shape[0] - 1) // 2
        return float(_l2_from_box(box, truth_spectrum(truth_vals, est.m, grid_size, L), d)[0])
    return float(_lp_from_values(est.evaluate(grid), truth_vals, p, d, grid_size))


def chunk_replications(rows, width):
    """Replications scored together: their complex values, rows x width each, fit CHUNK_BYTES.

    rows is a replication's estimator rows; width is chunk_width's columns
    per row. Never below one.
    """
    return max(1, CHUNK_BYTES // (16 * rows * max(width, 1)))


def chunk_width(config):
    """Complex columns per estimator row that a chunk scores at once, from the config alone.

    G^d grid values when some exponent in p is not 2; the (2L+1)^d box
    spectrum, L = box_half_width(B, J-1), when the grid risk is p = 2 alone;
    the coefficients of all levels, sum_j K_j, for the coefficient proxy
    alone.
    """
    J, d = config.resolved_J(), config.d
    if config.risk_method == "coefficient-proxy":
        return sum(cubature_size(config.B, j) ** d for j in range(J))
    if any(p != 2 for p in config.p):
        return config.grid**d
    return (2 * box_half_width(config.B, J - 1) + 1) ** d


def run_experiment(config, threads=1):
    """Execute the Monte Carlo protocol; deterministic for a given master seed."""
    density = density_from_name(config.density, config.d)
    J = config.resolved_J()
    frame = NeedletFrame(config.B, config.d, jmax=max(J - 1, 0))
    m = config.m
    # one estimator row per member, kappa0 outer: the order its rows are emitted in
    members = [(k0, kind) for k0 in config.kappa0 for kind in config.rules]
    literal = config.literal_paper_kappa
    rules = [
        calibrated_rule(kind, k0, density.sup_norm, frame.window, m, config.n, config.B, literal)
        for k0, kind in members
    ]
    need_grid = config.risk_method in ("grid-quadrature", "both")
    need_proxy = config.risk_method in ("coefficient-proxy", "both")
    columns = [(p, "grid-quadrature") for p in config.p] if need_grid else []
    columns += [(2.0, "coefficient-proxy")] if need_proxy else []
    # grid values are formed only for an exponent other than 2
    need_values = need_grid and any(p != 2 for p in config.p)
    # every replication shares one plan (per-level constants, thresholds) and one truth
    plan = _ReplicationPlan(frame, m, J, rules)
    G = config.grid
    if need_grid:
        grid = uniform_grid(G, config.d)
        truth_vals = density.derivative(m, grid[:, 0] if config.d == 1 else grid)
        truth_box = truth_spectrum(truth_vals, m, G, plan.L)
    true_coeffs = analyze(frame, density, m, jmax=J - 1) if need_proxy else None
    totals = [cols.stop - cols.start for cols in plan.slices]

    def one_chunk(reps):
        raws = np.empty((len(reps), plan.size))
        for i, r in enumerate(reps):
            try:
                X = density.sampler(np.random.default_rng(child_seed(config.seed, r)), config.n)
                raws[i] = empirical_coefficients(frame, X, jmax=J - 1, m=m, plan=plan).flat
            except Exception as exc:
                raise RuntimeError(f"replication {r} failed: {exc}") from exc
            del X  # the next sample is drawn without this one
        try:
            raw = CoefficientArray.from_flat(m, raws, plan.slices)
            est = thresholded_estimator(frame, raw, rules, plan=plan)
            risks = np.empty((len(reps), len(members), len(columns)))
            if need_grid:
                box, _ = synthesis_box(frame, est.coeffs, plan=plan)
                l2 = _l2_from_box(box, truth_box, config.d).reshape(risks.shape[:2])
                est_vals = est.evaluate(grid) if need_values else None
                for c, p in enumerate(config.p):
                    if p == 2:
                        risks[..., c] = l2
                    else:
                        risks[..., c] = _lp_from_values(est_vals, truth_vals, p, config.d, G)
            if need_proxy:
                risks[..., -1] = _proxy_distance(est.coeffs, true_coeffs)
            alive = est.survivors().tolist()
        except Exception as exc:
            first, last = reps[0], reps[-1]
            which = f"replication {first}" if first == last else f"replications {first}-{last}"
            raise RuntimeError(f"{which} failed: {exc}") from exc
        counts, risk_rows = [], []
        for r, rep_alive, rep_risks in zip(reps, alive, risks.tolist()):
            for (k0, kind), row_alive, row_risks in zip(members, rep_alive, rep_risks):
                for j, (kept, total) in enumerate(zip(row_alive, totals)):
                    counts.append(CountRow(kind, k0, r, j, kept, total, kept / total))
                for (p, method), risk in zip(columns, row_risks):
                    risk_rows.append(RiskRow(kind, k0, r, p, risk, method))
        return counts, risk_rows

    R = config.replications
    size = chunk_replications(len(members), chunk_width(config))
    chunks = [range(start, min(start + size, R)) for start in range(0, R, size)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a threaded run pays its import

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(one_chunk, chunks))
    else:
        per_chunk = [one_chunk(reps) for reps in chunks]

    count_rows, risk_rows = [], []
    for counts, risks in per_chunk:  # already in replication order
        count_rows.extend(counts)
        risk_rows.extend(risks)
    seeds = tuple(child_seed(config.seed, r) for r in range(R))
    return RiskReport(config, count_rows, risk_rows, seeds)


def _fmt(value):
    return f"{value:.17g}"


def _csv_field(text):
    """text as one RFC 4180 field: quoted, inner quotes doubled, when it holds , " CR or LF."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_counts_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("density,n,m,rule,kappa0,replication,j,surviving,total,fraction\n")
        cfg = report.config
        density, mtag = _csv_field(cfg.density), ";".join(str(v) for v in cfg.m)
        for row in report.count_rows:
            fh.write(
                f"{density},{cfg.n},{mtag},{row.rule},{_fmt(row.kappa0)},"
                f"{row.replication},{row.j},{row.surviving},{row.total},{_fmt(row.fraction)}\n"
            )


def _write_risks_csv(report, path, method):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("density,n,m,rule,kappa0,replication,p,risk\n")
        cfg = report.config
        density, mtag = _csv_field(cfg.density), ";".join(str(v) for v in cfg.m)
        for row in report.risk_rows:
            if row.method != method:
                continue
            ptag = "inf" if math.isinf(row.p) else _fmt(row.p)
            fh.write(
                f"{density},{cfg.n},{mtag},{row.rule},{_fmt(row.kappa0)},"
                f"{row.replication},{ptag},{_fmt(row.risk)}\n"
            )


def emit_report(report, destination):
    """Write the report's CSVs and JSON under the destination directory.

    bench_counts.csv, bench_risks.csv (the grid risks, or the proxy risks
    of a proxy-only run), bench_risks_proxy.csv when both risk methods ran,
    and bench_report.json mirroring rows, aggregates, config, and seed
    provenance.
    """
    os.makedirs(destination, exist_ok=True)
    _write_counts_csv(report, os.path.join(destination, "bench_counts.csv"))
    method = report.config.risk_method
    primary = method if method == "coefficient-proxy" else "grid-quadrature"
    _write_risks_csv(report, os.path.join(destination, "bench_risks.csv"), primary)
    if method == "both":
        _write_risks_csv(
            report, os.path.join(destination, "bench_risks_proxy.csv"), "coefficient-proxy"
        )
    payload = {
        "config": report.config.to_dict(),
        "child_seeds": [str(s) for s in report.child_seeds],
        "counts": [row._asdict() for row in report.count_rows],
        "risks": [
            {**row._asdict(), "p": "inf" if math.isinf(row.p) else row.p}
            for row in report.risk_rows
        ],
        "aggregates": {
            "risks": report.risk_aggregates(),
            "counts": report.count_aggregates(),
        },
    }
    with open(os.path.join(destination, "bench_report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
