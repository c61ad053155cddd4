"""Command-line entry point: frame inspection, estimation, benchmarks, grids.

Exit codes are a stable scripting contract: 0 success; 1 an OS or runtime
failure (a file that cannot be opened, a failing replication); 2 refused
usage or input content (a bad flag, a file that is not UTF-8 or not JSON, a
malformed row or value, a run too large for the frame's size caps). Every
refusal is a ValueError, printed as one `error:` line. No subcommand writes
a file before its inputs have validated, so invalid invocations leave no
partial output. Angles are radians everywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from array import array

import numpy as np

from .densities import density_from_name, truth_on_grid
from .estimation import (
    ThresholdRule,
    calibrated_rule,
    estimate,
    read_estimator_csv,
    read_input,
    synthesize,
    truncation_level,
    with_density_mean,
    write_estimator_csv,
    write_estimator_meta,
)
from .frame import CoefficientArray, NeedletFrame, needlet_l2_norm, uniform_grid
from .harmonics import TWO_PI, as_multi_index, wrap_angles


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
    _require(1 < args.B < math.inf, f"--B must satisfy B > 1 and be finite, got {args.B:g}")


def _load_samples(path, d):
    """Parse a headerless CSV of d angle columns; wrap angles into [0, 2pi).

    The file is opened once, as UTF-8 text. When it can be read twice (not a
    pipe), numpy's C reader parses it first, and its result stands only when
    it is at least one row of exactly d finite values: on such a file it reads
    the doubles float() reads. Anything else (a line of only spaces or tabs, a
    spelling only float() accepts such as "1_0", a malformed row, an empty
    file, text that is not UTF-8) goes to the line reader, which reads the same
    handle again from the start and decides the result or the message
    (read_input names a file that is not UTF-8).
    When every value is in [0, 2pi) the parsed array itself is returned, with
    wrap_angles' bits (x + 0.0, done in place), so the load holds one n x d
    array; only a file with a row outside takes wrap_angles' copy and the
    count. Returns (points, number of rows that needed wrapping).
    """

    def parse(fh):
        if fh.seekable():
            X = _read_clean_samples(fh, d)
            if X is not None:
                return X
            fh.seek(0)
        return _read_sample_lines(fh, path, d)

    X = read_input(path, parse)
    if 0 <= X.min() and X.max() < TWO_PI:
        X += 0.0  # wrap_angles' in-range rule: -0.0 becomes 0.0
        return X, 0
    outside = int(np.count_nonzero(np.any((X < 0) | (X >= TWO_PI), axis=1)))
    return wrap_angles(X), outside


def _read_clean_samples(fh, d):
    """The (n, d) array np.loadtxt reads from text handle fh, or None for the line reader."""
    try:
        with warnings.catch_warnings():
            # an empty file warns "input contained no data"; the line reader reports it
            warnings.simplefilter("ignore", UserWarning)
            X = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if X.shape[1] != d or X.shape[0] == 0 or not np.all(np.isfinite(X)):
        return None
    return X


def _read_sample_lines(fh, path, d):
    """Parse the text handle line by line: every token goes through Python's float().

    Blank lines are skipped. Every other line must be d finite comma-separated
    floats; the first 20 that are not are named, with their line numbers.
    The values collect in a flat array of doubles, 8 bytes each.
    """
    values, bad = array("d"), []
    for lineno, line in enumerate(fh, start=1):
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
        elif not bad:
            values.extend(vals)
    if bad:
        shown = ", ".join(str(b) for b in bad[:20])
        more = f" and {len(bad) - 20} more" if len(bad) > 20 else ""
        raise ValueError(
            f"{path}: malformed rows (need {d} finite comma-separated angles) "
            f"at line {shown}{more}"
        )
    if not values:
        raise ValueError(f"{path}: no sample rows")
    return np.array(values, dtype=float).reshape(-1, d)


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
    # J counts levels, as in estimate and the bench configs: rows 0..J-1
    frame = NeedletFrame(args.B, args.d, jmax=max(args.J - 1, 0))
    moments = [frame.window.moment(q) for q in (0, 1, 2)]
    print(f"B={args.B:g}  d={args.d}  J={args.J}  m=({','.join(str(v) for v in m)})")
    print(
        f"window moments: I0={moments[0]:.12g}  I1={moments[1]:.12g}  I2={moments[2]:.12g}"
    )
    print(f"{'j':>3} {'shell':>8} {'pixels':>8} {'weight':>14} {'psi_l2_norm':>14}")
    for j in range(args.J):
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
        _require(0 <= args.kappa < math.inf, "--kappa must be nonnegative and finite")
    else:
        _require(args.M is not None, "--kappa0 requires --M (density sup-norm bound)")
        _require(0 < args.kappa0 < math.inf, "--kappa0 must be positive and finite")
        _require(0 < args.M < math.inf, "--M must be positive and finite")
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
        raise ValueError(f"{args.data}: need at least 3 samples, got {n}")
    J = args.J if args.J is not None else truncation_level(n, args.d, sum(m), args.B)
    frame = NeedletFrame(args.B, args.d, jmax=max(J - 1, 0), grid=args.grid)
    if args.kappa is not None:
        rule = ThresholdRule(
            args.rule, args.kappa, m, n, args.B, scale_with_n=not args.literal_paper_kappa
        )
    else:
        rule = calibrated_rule(
            args.rule, args.kappa0, args.M, frame.window, m, n, args.B, args.literal_paper_kappa
        )
    est = estimate(frame, X, m, rule, J_override=J)
    grid = uniform_grid(args.grid, args.d) if args.grid is not None else None
    # a truth that overflows is refused before any file is written
    truth = truth_on_grid(density, m, grid) if grid is not None and density is not None else None

    write_estimator_csv(est, f"{args.out}_coefficients.csv")
    write_estimator_meta(est, f"{args.out}_meta.json")
    written = [f"{args.out}_coefficients.csv", f"{args.out}_meta.json"]
    if grid is not None:
        _write_grid_csv(f"{args.out}_grid.csv", grid, est.evaluate(grid), truth)
        written.append(f"{args.out}_grid.csv")
    print(f"n={n}  J={est.J}  kappa={est.rule.kappa:.6g}  rule={est.rule.kind}")
    for j, alive, total, frac in est.surviving_counts():
        print(f"  level {j}: {alive}/{total} coefficients kept ({100 * frac:.1f}%)")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_bench(args):
    # bench (and the thread pool it may start) loads only for this subcommand
    from .bench import emit_report, load_config, run_experiment

    _require(args.threads >= 1, "--threads must be at least 1")
    config = load_config(args.config)
    if args.seed is not None:
        _require(args.seed >= 0, "--seed must be nonnegative")
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config, threads=args.threads)
    emit_report(report, args.out)
    print(
        f"ran {config.replications} replication(s): "
        f"{report.surviving.size} count rows, {report.risks.size} risk rows -> {args.out}"
    )
    return 0


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _estimator_shape(meta, meta_path):
    """(B, d, J, m) from a parsed _meta.json, each checked against what write_estimator_meta writes."""
    B, d, J, m = meta["B"], meta["d"], meta["J"], meta["m"]
    _require(
        (isinstance(B, float) or _is_int(B)) and math.isfinite(B) and B > 1,
        f"{meta_path}: 'B' must be a finite number above 1, got {B!r}",
    )
    _require(_is_int(d) and d >= 1, f"{meta_path}: 'd' must be an integer >= 1, got {d!r}")
    _require(_is_int(J) and J >= 0, f"{meta_path}: 'J' must be an integer >= 0, got {J!r}")
    _require(
        isinstance(m, list) and len(m) == d and all(_is_int(v) and v >= 0 for v in m),
        f"{meta_path}: 'm' must be a list of {d} nonnegative integers, got {m!r}",
    )
    return float(B), d, J, tuple(m)


def _cmd_eval_grid(args):
    _require(args.grid >= 1, "--grid must be a positive integer")
    meta_path = f"{args.stem}_meta.json"
    coeff_path = f"{args.stem}_coefficients.csv"
    meta = read_input(meta_path)
    _require(isinstance(meta, dict), f"{meta_path}: must hold a JSON object")
    for key in ("B", "d", "m", "n", "kappa", "rule", "J"):
        _require(key in meta, f"{meta_path}: missing key {key!r}")
    B, d, J, m = _estimator_shape(meta, meta_path)
    frame = NeedletFrame(B, d, jmax=max(J - 1, 0), grid=args.grid)
    density = density_from_name(args.density, d) if args.density else None

    _, kept_levels, _ = read_estimator_csv(coeff_path)
    if len(kept_levels) != J:
        raise ValueError(
            f"{coeff_path}: expected coefficients for {J} level(s), found {len(kept_levels)}"
        )
    coeffs = CoefficientArray(m, kept_levels)
    grid = uniform_grid(args.grid, d)
    truth = truth_on_grid(density, m, grid) if density is not None else None
    vals = with_density_mean(synthesize(frame, coeffs, grid), m)
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
    info.add_argument(
        "--J", type=int, required=True, help="number of levels to report (levels 0..J-1)"
    )
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
    except ValueError as exc:  # refused input; bench.ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
