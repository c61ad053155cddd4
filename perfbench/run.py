#!/usr/bin/env python3
"""torneed benchmark: Monte Carlo throughput, CLI round trips, per-layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload paper_d1 --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 wraps the layer
boundaries (perfbench/spans.py) and reports the per-layer metrics instead.
Both check the outputs against perfbench/reference*.json|csv and print, as the
last line, {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --write-spec        # rewrite BENCHMARK.json
    python3 perfbench/run.py --write-reference   # re-record the reference outputs

Closed loop, one client, threads=1. BLAS and OpenMP pools are pinned to one
thread before numpy loads: on two shared cores a second thread measures the
scheduler and the neighbours, not the program. Thread scaling is out of scope.
"""

import os

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
CLI_REFERENCE = HERE / "reference_cli_d1_coefficients.csv"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

REF_SEED = 202406
REL_TOL = 1e-10
CHILD_TIMEOUT_S = 170
PHASE_CHUNK_ROWS = 1 << 15  # rows per phase block in estimation.empirical_coefficients
COMPUTED = {
    "harmonics.shell_freqs",
    "harmonics.distinct_freqs",
    "harmonics.freq_reuse",
    "frame.synthesize_exp_evals",
    "estimation.sample_exp_evals",
    "estimation.phase_block_mb",
}

WORKLOADS = {
    "paper_d1": "The paper's own table (configs/paper_table3.json): d=1, n=8000, J=4, "
    "hard+soft, 4 kappa0. The sample spectrum is ~75% of a replication.",
    "product_d2": "The d>=2 hot path: product of two wrapped normals, d=2, J=4, grid 65. "
    "Dense synthesis is most of a replication; analyze weighs on set-up.",
    "large_n_d1": "n=100000, hard rule, proxy risk only: synthesis never runs and the "
    "sample spectrum is ~97%. Bypass case for synthesis changes.",
    "cli_d1": "torneed estimate then eval-grid as subprocesses on a 100000-row CSV: the "
    "only workload paying import and CSV parse/write on every call.",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "reps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

PER_LAYER = [
    ("harmonics.shell_freqs", "count", "lower"),
    ("harmonics.distinct_freqs", "count", "lower"),
    ("harmonics.freq_reuse", "ratio", "lower"),
    ("frame.build_s", "s", "lower"),
    ("frame.window_moment_s", "s", "lower"),
    ("frame.analyze_s", "s", "lower"),
    ("frame.synthesize_s", "s", "lower"),
    ("frame.synthesize_calls", "count", "lower"),
    ("frame.synthesize_exp_evals", "count", "lower"),
    ("estimation.empirical_coefficients_s", "s", "lower"),
    ("estimation.empirical_coefficients_calls", "count", "lower"),
    ("estimation.sample_exp_evals", "count", "lower"),
    ("estimation.phase_block_mb", "MB", "lower"),
    ("estimation.threshold_s", "s", "lower"),
    ("estimation.estimate_s", "s", "lower"),
    ("estimation.csv_write_s", "s", "lower"),
    ("estimation.csv_read_s", "s", "lower"),
    ("densities.build_s", "s", "lower"),
    ("densities.truth_s", "s", "lower"),
    ("densities.sampler_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.tracing_overhead", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_estimate_s", "s", "lower"),
    ("cli.main_eval_grid_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
]


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY only exercises the plumbing."""

    call_reps: dict  # replications per run_experiment call in the timed loop
    ref_reps: dict  # replications of the reference (warm-up) call
    mc_overrides: dict  # per workload, applied over the workload's config
    cli_n: int
    cli_grid: int
    setup_spawns: int  # fresh interpreters timed per run


FULL = Sizes(
    call_reps={"paper_d1": 50, "product_d2": 2, "large_n_d1": 4},
    ref_reps={"paper_d1": 10, "product_d2": 1, "large_n_d1": 2},
    mc_overrides={"paper_d1": {}, "product_d2": {}, "large_n_d1": {}},
    cli_n=100000,
    cli_grid=513,
    setup_spawns=3,
)
TINY = Sizes(
    call_reps={"paper_d1": 2, "product_d2": 1, "large_n_d1": 2},
    ref_reps={"paper_d1": 2, "product_d2": 1, "large_n_d1": 2},
    mc_overrides={
        "paper_d1": {"n": 400, "J": 2, "grid": 17},
        "product_d2": {"n": 400, "J": 2, "grid": 17},
        "large_n_d1": {"n": 400, "grid": 17},
    },
    cli_n=2000,
    cli_grid=65,
    setup_spawns=1,
)


# ------------------------------------------------------------------ inputs


def experiment_config(workload, seed, replications, sizes):
    """The workload's experiment config as a plain dict."""
    base = json.loads((ROOT / "configs" / "paper_table3.json").read_text())
    changes = {
        "paper_d1": {},
        # kappa0=1 sits on the survival edge of levels 2 and 3 in d=2, so whether a
        # replication pays for their dense synthesis was a coin flip (+-15% per
        # replication). 0.25 replaces it: every level then lives or dies with a
        # margin of >= 25% of the threshold, and the timing measures the program.
        "product_d2": {
            "density": "product(wrapped_normal(1.0),wrapped_normal(1.0))",
            "d": 2,
            "m": [1, 0],
            "grid": 65,
            "kappa0": [0.25, 0.5, 2.5, 5],
        },
        "large_n_d1": {
            "n": 100000,
            "J": "auto",
            "rules": ["hard"],
            "risk_method": "coefficient-proxy",
        },
    }[workload]
    return {
        **base,
        **changes,
        **sizes.mc_overrides[workload],
        "replications": replications,
        "seed": seed,
    }


def call_seed(seed, index):
    """Master seed of the index-th timed call, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_sample_csv(path, seed, n):
    """n draws of the wrapped normal N(0, 1) mod 2pi, one angle per row."""
    rng = np.random.default_rng(seed)
    np.savetxt(path, np.mod(rng.normal(0.0, 1.0, n), 2.0 * np.pi), fmt="%.17g")


def wrapped_normal_sup():
    """Peak of the wrapped N(0, 1) density, at angle 0: the CLI's --M."""
    k = range(-10, 11)
    return sum(math.exp(-0.5 * (2.0 * math.pi * v) ** 2) for v in k) / math.sqrt(2.0 * math.pi)


def child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def import_torneed():
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import torneed
    import torneed.cli  # noqa: F401

    return torneed


# ------------------------------------------------------------------ checks


def close(a, b, scale):
    return math.isfinite(a) and abs(a - b) <= REL_TOL * scale


def mc_summary(report):
    """Risk and count aggregates, with surviving counts summed exactly."""
    surviving = {}
    for row in report.count_rows:
        key = (row.rule, row.kappa0, row.j)
        surviving[key] = surviving.get(key, 0) + row.surviving
    counts = [
        {**c, "surviving": surviving[(c["rule"], c["kappa0"], c["j"])]}
        for c in report.count_aggregates()
    ]
    return {"risks": report.risk_aggregates(), "counts": counts}


def mc_mismatches(got, ref):
    """Every way the summary differs from the reference, as text."""
    out = []
    for part, exact, floats in (
        ("risks", ("method", "rule", "kappa0", "p", "replications"), ("mean", "stderr")),
        ("counts", ("rule", "kappa0", "j", "surviving"), ("mean_fraction",)),
    ):
        if len(got[part]) != len(ref[part]):
            out.append(f"{part}: {len(got[part])} rows, reference has {len(ref[part])}")
            continue
        for g, r in zip(got[part], ref[part]):
            for key in exact:
                if g[key] != r[key]:
                    out.append(f"{part} {key}: {g[key]!r} != {r[key]!r}")
            for key in floats:
                if not close(g[key], r[key], max(abs(g[key]), abs(r[key]))):
                    out.append(f"{part} {key}: {g[key]!r} != {r[key]!r}")
    return out


def mc_bad_replications(report, cfg):
    """Replications whose rows are missing, out of range or non-finite."""
    J = cfg.resolved_J()
    totals = [(2 * math.ceil(cfg.B ** (j + 1)) + 1) ** cfg.d for j in range(J)]
    risks_per_cell = (len(cfg.p) if cfg.risk_method != "coefficient-proxy" else 0) + (
        1 if cfg.risk_method != "grid-quadrature" and 2.0 in cfg.p else 0
    )
    cells = len(cfg.kappa0) * len(cfg.rules)
    n_counts, n_risks, bad = {}, {}, set()
    for row in report.count_rows:
        n_counts[row.replication] = n_counts.get(row.replication, 0) + 1
        ok = 0 <= row.j < J and row.total == totals[row.j] and 0 <= row.surviving <= row.total
        if not ok or row.fraction != row.surviving / row.total:
            bad.add(row.replication)
    for row in report.risk_rows:
        n_risks[row.replication] = n_risks.get(row.replication, 0) + 1
        if not (math.isfinite(row.risk) and row.risk >= 0):
            bad.add(row.replication)
    for r in range(cfg.replications):
        if n_counts.get(r, 0) != cells * J or n_risks.get(r, 0) != cells * risks_per_cell:
            bad.add(r)
    return bad


def read_coefficients(path):
    """Rows (j, k, raw, thresholded, tau) of an estimator CSV, parsed here."""
    lines = Path(path).read_text().split("\n")
    if lines[0] != "j,k,raw,thresholded,tau":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        if line:
            j, k, raw, kept, tau = line.split(",")
            rows.append((int(j), int(k), float(raw), float(kept), float(tau)))
    return rows


def coefficient_mismatches(got, ref):
    """Compare at REL_TOL of each level's largest magnitude; survivors exactly."""
    if [r[:2] for r in got] != [r[:2] for r in ref]:
        return ["coefficient (j, k) layout differs from the reference"]
    scale = {}
    for j, _, raw, kept, tau in ref:
        scale[j] = max(scale.get(j, 0.0), abs(raw), abs(kept), abs(tau))
    out = []
    for g, r in zip(got, ref):
        for col, name in ((2, "raw"), (3, "thresholded"), (4, "tau")):
            if not close(g[col], r[col], scale[r[0]]):
                out.append(f"{name} at (j={r[0]}, k={r[1]}): {g[col]!r} != {r[col]!r}")
        if (g[3] != 0.0) != (r[3] != 0.0):
            out.append(f"survival at (j={r[0]}, k={r[1]}) differs")
    return out


def read_grid(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def grids_agree(a, b):
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return False
    return bool(np.all(np.abs(a - b) <= REL_TOL * np.max(np.abs(b), axis=0)))


# ------------------------------------------------------------------ Monte Carlo workloads


def experiment_call(tn, workload, seed, sizes, tally):
    """A function running the next timed run_experiment call; returns (replications, s)."""
    index = itertools.count()

    def call():
        raw = experiment_config(
            workload, call_seed(seed, next(index)), sizes.call_reps[workload], sizes
        )
        cfg = tn.config_from_dict(raw)
        start = time.perf_counter()
        try:
            report = tn.bench.run_experiment(cfg, threads=1)
        except Exception:  # a raising call fails every replication in it
            traceback.print_exc()
            bad = set(range(cfg.replications))
        else:
            bad = mc_bad_replications(report, cfg)
        elapsed = time.perf_counter() - start
        tally.add(cfg.replications, len(bad))
        return cfg.replications, elapsed

    return call


def reference_call(tn, workload, sizes):
    cfg = tn.config_from_dict(
        experiment_config(workload, REF_SEED, sizes.ref_reps[workload], sizes)
    )
    return cfg, mc_summary(tn.bench.run_experiment(cfg, threads=1))


def check_reference_call(tn, workload, sizes, reference, tally):
    """Reference-seed call (also the warm-up), compared with the stored outputs."""
    cfg, summary = reference_call(tn, workload, sizes)
    problems = mc_mismatches(summary, reference[workload])
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    tally.add(cfg.replications, cfg.replications if problems else 0)


# ------------------------------------------------------------------ CLI workload


def subprocess_cli(argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "torneed.cli", *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        print(f"torneed {argv[0]} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
    return time.perf_counter() - start, proc.returncode


def in_process_cli(cli):
    def run(argv):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code:
            print(f"torneed {argv[0]} returned {code}: {sink.getvalue()}", file=sys.stderr)
        return time.perf_counter() - start, code

    return run


def round_trip(run_cli, sample, stem, sizes, tally, reference_rows=None):
    """estimate, then eval-grid on its artifacts; returns (estimate s, eval-grid s)."""
    suffixes = ("_coefficients.csv", "_meta.json", "_grid.csv", "_eval.csv")
    coefficients, meta, grid, evaluated = (Path(f"{stem}{s}") for s in suffixes)
    for path in (coefficients, meta, grid, evaluated):
        path.unlink(missing_ok=True)  # a failed call must not leave the next one stale files
    density = ["--density", "wrapped_normal(1.0)"]
    estimate_s, code = run_cli(
        ["estimate", str(sample), "--m", "1", "--kappa0", "1", "--M", repr(wrapped_normal_sup()),
         "--grid", str(sizes.cli_grid), *density, "--out", str(stem)]
    )
    estimate_problems = [] if code == 0 else [f"estimate exited {code}"]
    if code == 0:
        try:
            rows = read_coefficients(coefficients)
        except (OSError, ValueError) as exc:
            estimate_problems.append(f"unreadable coefficients: {exc}")
        else:
            if not all(math.isfinite(v) for row in rows for v in row[2:]):
                estimate_problems.append("non-finite coefficient")
            if reference_rows is not None:
                estimate_problems += coefficient_mismatches(rows, reference_rows)
    eval_s, code = run_cli(
        ["eval-grid", str(stem), "--grid", str(sizes.cli_grid), *density,
         "--out", str(evaluated)]
    )
    eval_problems = [] if code == 0 else [f"eval-grid exited {code}"]
    if code == 0:
        # two code paths: synthesis of the in-memory estimator vs of the stored CSV
        try:
            agree = grids_agree(read_grid(evaluated), read_grid(grid))
        except (OSError, ValueError) as exc:
            eval_problems.append(f"unreadable grid: {exc}")
        else:
            if not agree:
                eval_problems.append("eval-grid values differ from estimate's grid CSV")
    for line in (estimate_problems + eval_problems)[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    tally.add(2, bool(estimate_problems) + bool(eval_problems))
    return estimate_s, eval_s


def reference_sample(work, sizes):
    path = work / "reference_sample.csv"
    write_sample_csv(path, REF_SEED, sizes.cli_n)
    return path


# ------------------------------------------------------------------ measurement


def timed_calls(call, seconds):
    """Closed loop: call again until the calls add up to `seconds`; [(ops, s), ...]."""
    calls = []
    while not calls or sum(s for _, s in calls) < seconds:
        calls.append(call())
    return calls


def base_rate(calls):
    """Operations per second of the 10th-percentile call.

    On the shared 2-core VM this was built on, each core runs at a base speed
    most of the time and ~35% faster in bursts of a second or so (a pinned
    pure-Python loop took 26 ms or 19 ms). The median call rate depends on how
    much of a run fell into the bursts; a low percentile sits at base speed.
    Over the same runs, the quartile spread across seeds of this rate was
    about 0.06, against 0.10-0.29 for the median call.
    """
    rates = [ops / s for ops, s in calls]
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


class Tally:
    """Operations attempted and failed: replications or CLI invocations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def probe_setup(arg, spawns):
    """Median set-up and import time over fresh interpreters."""
    runs = []
    for _ in range(spawns):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), arg],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        runs.append(json.loads(proc.stdout.strip().split("\n")[-1]))
    return (
        statistics.median(r["setup_s"] for r in runs),
        statistics.median(r["import_s"] for r in runs),
    )


def layer_static(tn, workload, sizes):
    """Counts computed from array sizes: shells of levels j < J, largest phase block."""
    if workload == "cli_d1":
        B, d, n = 2.0, 1, sizes.cli_n
        J = tn.truncation_level(n, d, 1, B)
    else:
        cfg = tn.config_from_dict(experiment_config(workload, REF_SEED, 1, sizes))
        B, d, n, J = cfg.B, cfg.d, cfg.n, cfg.resolved_J()
    shells = [tn.frequency_shell(j, B, d) for j in range(J)]
    summed = sum(s.shape[0] for s in shells)
    distinct = len({tuple(row) for s in shells for row in s})
    block = 16 * min(n, PHASE_CHUNK_ROWS) * max(s.shape[0] for s in shells)
    return {
        "harmonics.shell_freqs": summed,
        "harmonics.distinct_freqs": distinct,
        "harmonics.freq_reuse": distinct / summed,
        "estimation.phase_block_mb": block / 2**20,
    }


def layer_metrics(tracer, ops, setups):
    """Per-layer seconds and counts: set-up layers per set-up, the rest per operation."""
    per_setup = {
        "frame.build_s": "frame.build",
        "frame.window_moment_s": "frame.window_moment",
        "frame.analyze_s": "frame.analyze",
        "densities.build_s": "densities.build",
        "densities.truth_s": "densities.truth",
    }
    per_op = {
        "frame.synthesize_s": "frame.synthesize",
        "estimation.empirical_coefficients_s": "estimation.empirical_coefficients",
        "estimation.threshold_s": "estimation.threshold",
        "estimation.estimate_s": "estimation.estimate",
        "estimation.csv_write_s": "estimation.csv_write",
        "estimation.csv_read_s": "estimation.csv_read",
        "densities.sampler_s": "densities.sampler",
        "cli.main_estimate_s": "cli.main_estimate",
        "cli.main_eval_grid_s": "cli.main_eval_grid",
    }
    out = {k: tracer.inclusive_s(v) / setups for k, v in per_setup.items()}
    out.update({k: tracer.inclusive_s(v) / ops for k, v in per_op.items()})
    out["frame.synthesize_calls"] = tracer.calls("frame.synthesize") / ops
    out["frame.synthesize_exp_evals"] = tracer.counts.get("synthesize_exp_evals", 0) / ops
    out["estimation.empirical_coefficients_calls"] = (
        tracer.calls("estimation.empirical_coefficients") / ops
    )
    out["estimation.sample_exp_evals"] = tracer.counts.get("sample_exp_evals", 0) / ops
    out["bench.self_s"] = tracer.self_s("bench.run_experiment") / ops
    out["cli.self_s"] = (
        tracer.self_s("cli.main_estimate") + tracer.self_s("cli.main_eval_grid")
    ) / ops
    return out


def measure(workload, seed, seconds, trace, work, sizes=FULL, reference=None):
    """Run one workload; returns (result dict, human-readable lines)."""
    import spans as tracing

    tn = import_torneed()
    reference = load_reference() if reference is None else reference
    tally = Tally()
    lines, metrics, counts = [], {}, {}
    mc = workload != "cli_d1"

    if not trace:
        arg = "cli" if not mc else json.dumps(experiment_config(workload, seed, 1, sizes))
        metrics["setup_s"], import_s = probe_setup(arg, sizes.setup_spawns)
        lines.append(
            f"setup_s       {metrics['setup_s']:.4f} s   median of {sizes.setup_spawns} fresh "
            f"interpreters (import {import_s:.4f} s)"
        )

    if mc:
        check_reference_call(tn, workload, sizes, reference, tally)
        call = experiment_call(tn, workload, seed, sizes, tally)
        counts["reference_replications"] = sizes.ref_reps[workload]
        counts["replications_per_call"] = sizes.call_reps[workload]
        unit = "replications in run_experiment calls"
    else:
        run_cli = in_process_cli(tn.cli) if trace else subprocess_cli
        round_trip(run_cli, reference_sample(work, sizes), work / "ref", sizes, tally,
                   reference["cli_d1"])
        sample = work / "sample.csv"
        write_sample_csv(sample, seed, sizes.cli_n)
        split = []

        def call():
            split.append(round_trip(run_cli, sample, work / "run", sizes, tally))
            return 1, sum(split[-1])

        unit = "estimate + eval-grid round trips"

    calls = timed_calls(call, seconds / 2 if trace else seconds)
    counts["timed_operations"] = sum(ops for ops, _ in calls)
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, tn)
        try:
            traced = timed_calls(call, seconds / 2)
        finally:
            tracer.uninstall()
        counts["traced_operations"] = sum(ops for ops, _ in traced)
        ops = counts["traced_operations"]
        setups = len(traced) if mc else ops
    else:
        metrics["reps_per_s"] = base_rate(calls)
        usage = resource.RUSAGE_SELF if mc else resource.RUSAGE_CHILDREN
        metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
        lines.append(
            f"reps_per_s    {metrics['reps_per_s']:.4f} 1/s  10th percentile of "
            f"{len(calls)} calls (median {statistics.median(ops / s for ops, s in calls):.4f}), "
            f"{counts['timed_operations']} {unit} in {sum(s for _, s in calls):.3f} s"
        )
        if not mc:
            estimates, evals = zip(*split)
            lines.append(
                f"estimate_s    {statistics.median(estimates):.4f} s   median of "
                f"{len(estimates)} `torneed estimate` subprocesses, n={sizes.cli_n}"
            )
            lines.append(
                f"eval_grid_s   {statistics.median(evals):.4f} s   median of "
                f"{len(evals)} `torneed eval-grid` subprocesses, grid {sizes.cli_grid}"
            )

    if trace:
        metrics.update(layer_static(tn, workload, sizes))
        metrics.update(layer_metrics(tracer, ops, setups))
        metrics["bench.tracing_overhead"] = 1.0 - base_rate(traced) / base_rate(calls)
        metrics["cli.import_s"] = probe_setup("cli", sizes.setup_spawns)[1]
        (WORK / f"spans_{workload}.json").write_text(json.dumps(tracer.spans))
        for name, unit, _ in PER_LAYER:
            note = "  (computed from array sizes)" if name in COMPUTED else ""
            lines.append(f"{name:40s} {metrics[name]:.6g} {unit}{note}")
    else:
        lines.append(f"peak_rss_mb   {metrics['peak_rss_mb']:.4f} MB")

    lines.append(
        f"failed_frac   {tally.failed / tally.attempted:.4g}   "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    lines.append("machine " + json.dumps(machine_block(workload, seed, counts)))
    names = [m["name"] for m in END_TO_END] if not trace else [n for n, _, _ in PER_LAYER]
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({n: u for n, u, _ in PER_LAYER})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    return result, lines


# ------------------------------------------------------------------ provenance


def git_commit():
    """HEAD read from .git without running git; the bench checkout has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().split("\n"):
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    return "unknown"


def machine_block(workload, seed, counts):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": PINNED_THREADS,
        "run_experiment_threads": 1,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        **counts,
    }


# ------------------------------------------------------------------ reference and spec


def make_reference(sizes, work):
    """Outputs of every workload at REF_SEED, in the form measure() compares."""
    tn = import_torneed()
    out = {w: reference_call(tn, w, sizes)[1] for w in WORKLOADS if w != "cli_d1"}
    stem = work / "ref"
    code = tn.cli.main(
        ["estimate", str(reference_sample(work, sizes)), "--m", "1", "--kappa0", "1",
         "--M", repr(wrapped_normal_sup()), "--out", str(stem)]
    )
    if code:
        raise RuntimeError(f"reference estimate exited {code}")
    out["cli_d1"] = read_coefficients(f"{stem}_coefficients.csv")
    return out


def load_reference():
    reference = json.loads(REFERENCE.read_text())
    reference["cli_d1"] = read_coefficients(CLI_REFERENCE)
    return reference


def write_reference(work):
    reference = make_reference(FULL, work)
    shutil.copyfile(work / "ref_coefficients.csv", CLI_REFERENCE)
    del reference["cli_d1"]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ------------------------------------------------------------------ entry point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    parser.add_argument(
        "--write-reference", action="store_true", help="re-record the reference outputs"
    )
    args = parser.parse_args(argv)
    if args.write_spec:
        BENCHMARK_JSON.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    needed = [SRC / "torneed" / "__init__.py", ROOT / "configs" / "paper_table3.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a torneed checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload or 'reference'}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            write_reference(work)
            return 0
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
