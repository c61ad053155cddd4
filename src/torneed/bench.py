"""Seeded Monte Carlo benchmark: estimate density derivatives, record risks.

One experiment draws R independent samples of size n from a named test
density, builds the thresholded estimator once per replication, reuses the
same empirical coefficients across the whole kappa0 grid (same data, varying
threshold), and records per-level surviving counts plus L^p risks.

Reproducibility contract: every replication r derives its own RNG stream
from a documented integer hash of (master seed, r), so results are identical
whether replications run serially or on any number of threads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .densities import density_from_name
from .estimation import (
    DerivativeEstimator,
    apply_threshold,
    calibrated_rule,
    empirical_coefficients,
    threshold_value,
    truncation_level,
)
from .frame import CoefficientArray, NeedletFrame, analyze, uniform_grid
from .harmonics import TWO_PI

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


_CONFIG_KEYS = (
    "density",
    "d",
    "B",
    "m",
    "n",
    "replications",
    "kappa0",
    "rules",
    "J",
    "grid",
    "p",
    "seed",
    "risk_method",
    "literal_paper_kappa",
)

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
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in raw)
        ):
            errors.append("kappa0 must be a nonempty list of positive numbers")
        else:
            try:
                kappa0 = tuple(float(v) for v in raw)
            except OverflowError:
                errors.append("kappa0 entries must fit in a float")

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

    if method == "coefficient-proxy" and p is not None and any(v != 2 for v in p):
        errors.append("coefficient-proxy risk is defined for p = 2 only")
    if density is not None and d is not None:
        try:
            density_from_name(density, d)
        except ValueError as exc:
            errors.append(str(exc))
    if None not in (n, d, m, B, J, grid):
        try:
            j_resolved = truncation_level(n, d, sum(m), B) if J == "auto" else J
            min_grid = 2 * math.ceil(B ** (j_resolved + 1)) + 1
        except OverflowError:
            errors.append(f"J={J} with B={B:g} overflows a float (in n / ln n or B**(J+1))")
        else:
            if grid < min_grid:
                errors.append(f"grid must be at least {min_grid} to resolve level J={j_resolved}")

    if errors:
        raise ConfigError("invalid experiment config:\n  - " + "\n  - ".join(errors))
    return ExperimentConfig(
        density, d, B, m, n, reps, kappa0, rules, J, grid, p, seed, method, literal
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


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
        out = []
        for method in ("grid-quadrature", "coefficient-proxy"):
            for kind in self.config.rules:
                for k0 in self.config.kappa0:
                    for p in self.config.p:
                        vals = [
                            r.risk
                            for r in self.risk_rows
                            if r.method == method and r.rule == kind and r.kappa0 == k0 and r.p == p
                        ]
                        if not vals:
                            continue
                        mean = float(np.mean(vals))
                        stderr = (
                            float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                            if len(vals) > 1
                            else 0.0
                        )
                        out.append(
                            {
                                "method": method,
                                "rule": kind,
                                "kappa0": k0,
                                "p": "inf" if math.isinf(p) else p,
                                "mean": mean,
                                "stderr": stderr,
                                "replications": len(vals),
                            }
                        )
        return out

    def count_aggregates(self):
        """Mean surviving fraction per (rule, kappa0, j), config order."""
        out = []
        levels = sorted({r.j for r in self.count_rows})
        for kind in self.config.rules:
            for k0 in self.config.kappa0:
                for j in levels:
                    vals = [
                        r.fraction
                        for r in self.count_rows
                        if r.rule == kind and r.kappa0 == k0 and r.j == j
                    ]
                    if vals:
                        out.append(
                            {
                                "rule": kind,
                                "kappa0": k0,
                                "j": j,
                                "mean_fraction": float(np.mean(vals)),
                            }
                        )
        return out


def _lp_from_values(est_vals, truth_vals, p, d, grid_per_dim):
    diff = np.abs(est_vals - truth_vals)
    if math.isinf(p):
        return float(np.max(diff)) if diff.size else 0.0
    cell = (TWO_PI / grid_per_dim) ** d
    return float((cell * np.sum(diff**p)) ** (1.0 / p))


def _proxy_distance(est, true_coeffs):
    total = 0.0
    for j in range(est.J):
        delta = est.coeffs.levels[j] - true_coeffs.levels[j]
        total += float(np.sum(delta**2))
    return math.sqrt(total)


def lp_distance(est, truth, p, grid_size, method="grid-quadrature"):
    """Distance between the estimator and the true m-th derivative.

    grid-quadrature: ((2pi)^d/G^d sum |est - truth|^p)^(1/p) on the uniform
    G-per-dimension grid (max for p = inf). coefficient-proxy: the l2 norm of
    the coefficient differences over levels < J (p = 2 only). For m = 0 the
    known mean of the density is added to the synthesized estimator.
    """
    d = est.frame.d
    if method == "coefficient-proxy":
        if p != 2:
            raise ValueError("coefficient-proxy risk is defined for p = 2 only")
        true_coeffs = analyze(est.frame, truth, est.m, jmax=est.J - 1) if est.J >= 1 else None
        return _proxy_distance(est, true_coeffs) if est.J >= 1 else 0.0
    if method != "grid-quadrature":
        raise ValueError(f"unknown risk method {method!r}")
    min_grid = 2 * math.ceil(est.frame.B**est.J) - 1
    if grid_size < min_grid:
        raise ValueError(f"grid {grid_size} cannot resolve the estimator band (needs >= {min_grid})")
    grid = uniform_grid(grid_size, d)
    est_vals = est.evaluate(grid)
    if sum(est.m) == 0:
        est_vals = est_vals + truth.mass * TWO_PI ** (-d)
    truth_vals = truth.derivative(est.m, grid[:, 0] if d == 1 else grid)
    return _lp_from_values(est_vals, truth_vals, p, d, grid_size)


def run_experiment(config, threads=1):
    """Execute the Monte Carlo protocol; deterministic for a given master seed."""
    density = density_from_name(config.density, config.d)
    J = config.resolved_J()
    frame = NeedletFrame(config.B, config.d, jmax=max(J, 0))
    m = config.m
    rules = {
        (kind, k0): calibrated_rule(
            kind,
            k0,
            density.sup_norm,
            frame.window,
            m,
            config.n,
            config.B,
            drop_sample_factor=config.literal_paper_kappa,
        )
        for kind in config.rules
        for k0 in config.kappa0
    }
    need_grid = config.risk_method in ("grid-quadrature", "both")
    need_proxy = config.risk_method in ("coefficient-proxy", "both")
    grid_pts = uniform_grid(config.grid, config.d) if need_grid else None
    truth_vals = None
    if need_grid:
        truth_vals = density.derivative(m, grid_pts[:, 0] if config.d == 1 else grid_pts)
    true_coeffs = analyze(frame, density, m, jmax=J - 1) if need_proxy and J >= 1 else None
    mean_value = density.mass * TWO_PI ** (-config.d)

    def one_replication(r):
        rng = np.random.default_rng(child_seed(config.seed, r))
        X = density.sampler(rng, config.n)
        if J >= 1:
            raw = empirical_coefficients(frame, X, jmax=J - 1, m=m)
        else:
            raw = CoefficientArray(m, [], "empirical")
        counts, risks = [], []
        for k0 in config.kappa0:
            for kind in config.rules:
                try:
                    rule = rules[(kind, k0)]
                    taus = tuple(threshold_value(rule, j) for j in range(J))
                    kept = [
                        apply_threshold(kind, lv, taus[j]) for j, lv in enumerate(raw.levels)
                    ]
                    est = DerivativeEstimator(
                        frame, m, rule, J, raw, CoefficientArray(m, kept, "empirical"), taus
                    )
                    for j, alive, total, frac in est.surviving_counts():
                        counts.append(CountRow(kind, k0, r, j, alive, total, frac))
                    if need_grid:
                        est_vals = est.evaluate(grid_pts)
                        if sum(m) == 0:
                            est_vals = est_vals + mean_value
                        for p in config.p:
                            risks.append(
                                RiskRow(
                                    kind,
                                    k0,
                                    r,
                                    p,
                                    _lp_from_values(est_vals, truth_vals, p, config.d, config.grid),
                                    "grid-quadrature",
                                )
                            )
                    if need_proxy and 2.0 in config.p:
                        proxy = _proxy_distance(est, true_coeffs) if J >= 1 else 0.0
                        risks.append(RiskRow(kind, k0, r, 2.0, proxy, "coefficient-proxy"))
                except Exception as exc:
                    raise RuntimeError(
                        f"replication {r} failed at kappa0={k0}, rule={kind}"
                    ) from exc
        return counts, risks

    R = config.replications
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(one_replication, range(R)))
    else:
        per_rep = [one_replication(r) for r in range(R)]

    count_rows, risk_rows = [], []
    for counts, risks in per_rep:  # already in replication order
        count_rows.extend(counts)
        risk_rows.extend(risks)
    seeds = tuple(child_seed(config.seed, r) for r in range(R))
    return RiskReport(config, count_rows, risk_rows, seeds)


def _fmt(value):
    return f"{value:.17g}"


def _write_counts_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("density,n,m,rule,kappa0,replication,j,surviving,total,fraction\n")
        cfg = report.config
        mtag = ";".join(str(v) for v in cfg.m)
        for row in report.count_rows:
            fh.write(
                f"{cfg.density},{cfg.n},{mtag},{row.rule},{_fmt(row.kappa0)},"
                f"{row.replication},{row.j},{row.surviving},{row.total},{_fmt(row.fraction)}\n"
            )


def _write_risks_csv(report, path, method):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("density,n,m,rule,kappa0,replication,p,risk\n")
        cfg = report.config
        mtag = ";".join(str(v) for v in cfg.m)
        for row in report.risk_rows:
            if row.method != method:
                continue
            ptag = "inf" if math.isinf(row.p) else _fmt(row.p)
            fh.write(
                f"{cfg.density},{cfg.n},{mtag},{row.rule},{_fmt(row.kappa0)},"
                f"{row.replication},{ptag},{_fmt(row.risk)}\n"
            )


def emit_report(report, format, destination):
    """Write the report under the destination directory.

    csv: bench_counts.csv plus the companion bench_risks.csv (and
    bench_risks_proxy.csv when both risk methods ran; a proxy-only run
    writes its rows to bench_risks.csv). json: bench_report.json mirroring
    rows, aggregates, config, and seed provenance.
    """
    os.makedirs(destination, exist_ok=True)
    if format == "csv":
        _write_counts_csv(report, os.path.join(destination, "bench_counts.csv"))
        primary = (
            "coefficient-proxy"
            if report.config.risk_method == "coefficient-proxy"
            else "grid-quadrature"
        )
        _write_risks_csv(report, os.path.join(destination, "bench_risks.csv"), primary)
        if report.config.risk_method == "both":
            _write_risks_csv(
                report, os.path.join(destination, "bench_risks_proxy.csv"), "coefficient-proxy"
            )
    elif format == "json":
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
        path = os.path.join(destination, "bench_report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


def load_report(path):
    """Read back an emitted JSON report as a plain dict."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
