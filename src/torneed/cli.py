"""Command-line entry point: frame inspection, estimation, benchmarks, grids.

Exit codes are a stable scripting contract: 0 success, 1 runtime or I/O
failure, 2 usage or validation failure. No subcommand writes a file before
its inputs have validated, so invalid invocations leave no partial output.
Angles are radians everywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bench import ConfigError, emit_report, load_config, run_experiment
from .densities import density_from_name
from .estimation import (
    ThresholdRule,
    calibrated_rule,
    estimate,
    read_estimator_csv,
    truncation_level,
    write_estimator_csv,
    write_estimator_meta,
)
from .frame import (
    CoefficientArray,
    NeedletFrame,
    needlet_l2_norm,
    synthesize,
    uniform_grid,
    window_moment,
)
from .harmonics import TWO_PI, as_multi_index, wrap_angles


class DataError(RuntimeError):
    """Unusable input data (as opposed to bad usage); exits with code 1."""


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _parse_m(text, d):
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--m must be comma-separated integers, got {text!r}") from None
    return as_multi_index(parts, d)


def _check_base_flags(args):
    _require(args.d >= 1, f"--d must be a positive integer, got {args.d}")
    _require(args.B > 1, f"--B must satisfy B > 1 (window dilation base), got {args.B:g}")


def _load_samples(path, d):
    """Parse a headerless CSV of d angle columns; wrap angles into [0, 2pi).

    Blank lines are skipped and every token goes through Python's float().
    Malformed rows abort with their line numbers. Returns (points, number of
    rows that needed wrapping).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    rows = [text for text in map(str.strip, lines) if text]
    if not rows:
        raise DataError(f"{path}: no sample rows")
    X = None
    if all(text.count(",") == d - 1 for text in rows):
        tokens = ",".join(rows).split(",")
        try:
            X = np.fromiter(map(float, tokens), dtype=float, count=len(tokens)).reshape(-1, d)
        except ValueError:
            pass
    if X is None or not np.all(np.isfinite(X)):
        raise DataError(_malformed_rows_message(path, lines, d))
    outside = int(np.count_nonzero(np.any((X < 0) | (X >= TWO_PI), axis=1)))
    return wrap_angles(X), outside


def _malformed_rows_message(path, lines, d):
    """Name the first 20 nonblank lines that are not d finite comma-separated floats."""
    bad = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            vals = [float(v) for v in text.split(",")]
        except ValueError:
            bad.append(lineno)
            continue
        if len(vals) != d or not all(math.isfinite(v) for v in vals):
            bad.append(lineno)
    shown = ", ".join(str(b) for b in bad[:20])
    more = f" and {len(bad) - 20} more" if len(bad) > 20 else ""
    return (
        f"{path}: malformed rows (need {d} finite comma-separated angles) "
        f"at line {shown}{more}"
    )


def _grid_and_values(est, grid_size, density):
    grid = uniform_grid(grid_size, est.frame.d)
    vals = est.evaluate(grid)
    if sum(est.m) == 0:
        # the frame only sees the zero-mean part; a probability density adds its mean back
        vals = vals + TWO_PI ** (-est.frame.d)
    truth = density.derivative(est.m, grid) if density is not None else None
    return grid, vals, truth


def _write_grid_csv(path, grid, vals, truth):
    d = grid.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ",".join(f"theta_{i + 1}" for i in range(d)) + ",value"
        fh.write(header + (",truth\n" if truth is not None else "\n"))
        for i in range(grid.shape[0]):
            cols = [f"{v:.17g}" for v in grid[i]] + [f"{vals[i]:.17g}"]
            if truth is not None:
                cols.append(f"{truth[i]:.17g}")
            fh.write(",".join(cols) + "\n")


def _cmd_frame_info(args):
    _check_base_flags(args)
    _require(args.J >= 0, f"--J must be nonnegative, got {args.J}")
    m = _parse_m(args.m, args.d) if args.m else as_multi_index(None, args.d)
    frame = NeedletFrame(args.B, args.d, jmax=args.J)
    moments = [window_moment(frame.window, q) for q in (0, 1, 2)]
    print(f"B={args.B:g}  d={args.d}  jmax={args.J}  m=({','.join(str(v) for v in m)})")
    print(
        f"window moments: I0={moments[0]:.12g}  I1={moments[1]:.12g}  I2={moments[2]:.12g}"
    )
    print(f"{'j':>3} {'shell':>8} {'pixels':>8} {'weight':>14} {'psi_l2_norm':>14}")
    for j in range(args.J + 1):
        cub = frame.cubature(j)
        print(
            f"{j:>3} {frame.shell(j).shape[0]:>8} {cub.K:>8} "
            f"{cub.weight:>14.8g} {needlet_l2_norm(frame, j, m):>14.8g}"
        )
    return 0


def _cmd_estimate(args):
    _check_base_flags(args)
    m = _parse_m(args.m, args.d)
    if (args.kappa is None) == (args.kappa0 is None):
        raise ValueError("exactly one of --kappa or --kappa0 (with --M) is required")
    if args.kappa is not None:
        _require(args.M is None, "--M only applies with --kappa0")
        _require(args.kappa >= 0, "--kappa must be nonnegative")
    else:
        _require(args.M is not None, "--kappa0 requires --M (density sup-norm bound)")
        _require(args.kappa0 > 0, "--kappa0 must be positive")
        _require(args.M > 0, "--M must be positive")
    if args.J is not None:
        _require(args.J >= 0, f"--J must be nonnegative, got {args.J}")
    if args.grid is not None:
        _require(args.grid >= 1, "--grid must be a positive integer")
    density = density_from_name(args.density, args.d) if args.density else None

    X, outside = _load_samples(args.data, args.d)
    if outside:
        print(f"warning: wrapped {outside} row(s) into [0, 2pi)", file=sys.stderr)
    n = X.shape[0]
    if n < 3:
        raise DataError(f"{args.data}: need at least 3 samples, got {n}")
    J = args.J if args.J is not None else truncation_level(n, args.d, sum(m), args.B)
    frame = NeedletFrame(args.B, args.d, jmax=max(J, 0))
    if args.kappa is not None:
        rule = ThresholdRule(
            args.rule, args.kappa, m, n, args.B, scale_with_n=not args.literal_paper_kappa
        )
    else:
        rule = calibrated_rule(
            args.rule,
            args.kappa0,
            args.M,
            frame.window,
            m,
            n,
            args.B,
            drop_sample_factor=args.literal_paper_kappa,
        )
    est = estimate(frame, X, m, rule, J_override=J)

    write_estimator_csv(est, f"{args.out}_coefficients.csv")
    write_estimator_meta(est, f"{args.out}_meta.json")
    written = [f"{args.out}_coefficients.csv", f"{args.out}_meta.json"]
    if args.grid is not None:
        grid, vals, truth = _grid_and_values(est, args.grid, density)
        _write_grid_csv(f"{args.out}_grid.csv", grid, vals, truth)
        written.append(f"{args.out}_grid.csv")
    print(f"n={n}  J={est.J}  kappa={est.rule.kappa:.6g}  rule={est.rule.kind}")
    for j, alive, total, frac in est.surviving_counts():
        print(f"  level {j}: {alive}/{total} coefficients kept ({100 * frac:.1f}%)")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_bench(args):
    _require(args.threads >= 1, "--threads must be at least 1")
    config = load_config(args.config)
    if args.seed is not None:
        _require(args.seed >= 0, "--seed must be nonnegative")
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config, threads=args.threads)
    emit_report(report, "csv", args.out)
    emit_report(report, "json", args.out)
    print(
        f"ran {config.replications} replication(s): "
        f"{len(report.count_rows)} count rows, {len(report.risk_rows)} risk rows -> {args.out}"
    )
    return 0


def _cmd_eval_grid(args):
    _require(args.grid >= 1, "--grid must be a positive integer")
    meta_path = f"{args.stem}_meta.json"
    coeff_path = f"{args.stem}_coefficients.csv"
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    for key in ("B", "d", "m", "n", "kappa", "rule", "J"):
        _require(key in meta, f"{meta_path}: missing key {key!r}")
    d, J = int(meta["d"]), int(meta["J"])
    m = as_multi_index(meta["m"], d)
    _require(meta["B"] > 1, f"{meta_path}: B must exceed 1")
    density = density_from_name(args.density, d) if args.density else None

    _, kept_levels, _ = read_estimator_csv(coeff_path)
    if len(kept_levels) != J:
        raise DataError(
            f"{coeff_path}: expected coefficients for {J} level(s), found {len(kept_levels)}"
        )
    frame = NeedletFrame(float(meta["B"]), d, jmax=max(J - 1, 0))
    coeffs = CoefficientArray(m, [np.asarray(lv, dtype=float) for lv in kept_levels], "empirical")
    grid = uniform_grid(args.grid, d)
    vals = synthesize(frame, coeffs, grid)
    if sum(m) == 0:
        vals = vals + TWO_PI ** (-d)
    truth = density.derivative(m, grid) if density is not None else None
    _write_grid_csv(args.out, grid, vals, truth)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torneed",
        description="Toroidal needlet frames and thresholded density-derivative estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("frame-info", help="print per-level frame quantities")
    info.add_argument("--B", type=float, required=True, help="dilation base, B > 1")
    info.add_argument("--d", type=int, required=True, help="torus dimension")
    info.add_argument("--J", type=int, required=True, help="highest level to report")
    info.add_argument("--m", type=str, default=None, help="derivative multi-index, e.g. 1 or 1,0")
    info.set_defaults(func=_cmd_frame_info)

    est = sub.add_parser("estimate", help="estimate a density derivative from a sample CSV")
    est.add_argument("data", help="headerless CSV, one sample per row, d angle columns (radians)")
    est.add_argument("--B", type=float, default=2.0, help="dilation base (default 2)")
    est.add_argument("--d", type=int, default=1, help="torus dimension (default 1)")
    est.add_argument("--m", type=str, required=True, help="derivative multi-index, e.g. 1 or 1,0")
    est.add_argument("--rule", choices=("hard", "soft"), default="hard")
    est.add_argument("--kappa", type=float, default=None, help="threshold constant, used directly")
    est.add_argument(
        "--kappa0", type=float, default=None, help="base constant for kappa = kappa0*M*I_|m|"
    )
    est.add_argument("--M", type=float, default=None, help="density sup-norm bound for --kappa0")
    est.add_argument("--J", type=int, default=None, help="truncation level (default: rule of thumb)")
    est.add_argument(
        "--grid", type=int, default=None, help="also evaluate on this many points per dimension"
    )
    est.add_argument(
        "--density", type=str, default=None, help="named density adds a truth column to the grid CSV"
    )
    est.add_argument(
        "--literal-paper-kappa",
        action="store_true",
        help="drop the sqrt(ln n / n) factor from thresholds",
    )
    est.add_argument("--out", type=str, required=True, help="output stem for _coefficients/_meta/_grid")
    est.set_defaults(func=_cmd_estimate)

    ben = sub.add_parser("bench", help="run a seeded Monte Carlo experiment from a JSON config")
    ben.add_argument("config", help="experiment config JSON")
    ben.add_argument("--out", type=str, required=True, help="output directory")
    ben.add_argument("--threads", type=int, default=1, help="parallel replications (default 1)")
    ben.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    ben.set_defaults(func=_cmd_bench)

    ev = sub.add_parser("eval-grid", help="evaluate stored estimator artifacts on a uniform grid")
    ev.add_argument("stem", help="artifact stem as passed to estimate --out")
    ev.add_argument("--grid", type=int, required=True, help="points per dimension")
    ev.add_argument(
        "--density", type=str, default=None, help="named density adds a truth column"
    )
    ev.add_argument("--out", type=str, required=True, help="output CSV path")
    ev.set_defaults(func=_cmd_eval_grid)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
