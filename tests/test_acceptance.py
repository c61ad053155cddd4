"""End-to-end checks of the frame, the estimator, and the benchmark harness.

Each test prints one `criterion N PASS/FAIL` line before asserting, so a
plain run reads as a checklist. Seeds are fixed; every figure asserted here
was derived independently (closed forms, finite differences, or frozen
reference runs).
"""

import math
import time

import numpy as np
import pytest

import torneed as tn
from torneed.cli import main
from torneed.harmonics import TWO_PI

CONFIG = "configs/paper_table1.json"


def report(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def reference_run():
    start = time.perf_counter()
    config = tn.load_config(CONFIG)
    out = tn.run_experiment(config, threads=4)
    return out, time.perf_counter() - start


def test_criterion_1_tight_frame_energy():
    start = time.perf_counter()
    frame = tn.NeedletFrame(2.0, 1, 3)
    coeffs = tn.analyze(frame, np.cos, band_limit=1)
    total = sum(float(np.sum(lv**2)) for lv in coeffs.levels)
    elapsed = time.perf_counter() - start
    err = abs(total - math.pi) / math.pi
    report(
        1,
        err < 1e-8 and elapsed < 1.0,
        f"coefficient energy of cos equals pi (rel err {err:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_reconstruction_of_band_limited_functions():
    start = time.perf_counter()
    frame = tn.NeedletFrame(2.0, 1, 3)
    grid = tn.uniform_grid(512, 1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        # levels <= 3 resolve frequencies up to B^3 = 8: the window partition
        # telescopes to 1 there, while 9..15 would also need level 4
        band = 8
        a = rng.normal(size=band)
        b = rng.normal(size=band)
        c0 = rng.normal()

        def f(theta):
            th = np.asarray(theta, dtype=float)
            ls = np.arange(1, band + 1)
            return c0 + np.cos(np.outer(th, ls)) @ a + np.sin(np.outer(th, ls)) @ b

        coeffs = tn.analyze(frame, f, band_limit=band)
        rebuilt = tn.synthesize(frame, coeffs, grid)
        target = f(grid[:, 0]) - c0  # reconstruction recovers the zero-mean part
        worst = max(worst, float(np.max(np.abs(rebuilt - target))))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-8 and elapsed < 5.0,
        f"5 random band-limited functions rebuilt (sup err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_derivative_needlets_match_finite_differences():
    start = time.perf_counter()
    frame = tn.NeedletFrame(2.0, 1, 4)
    rng = np.random.default_rng(333)
    worst = {1: 0.0, 2: 0.0}
    for _ in range(100):
        j = int(rng.integers(0, 5))
        k = int(rng.integers(0, frame.level(j).cubature.K))
        theta = float(rng.uniform(0, TWO_PI))
        for order, h in ((1, 1e-5), (2, 1e-4)):
            lo = tn.needlet_eval(frame, j, k, theta - h)
            mid = tn.needlet_eval(frame, j, k, theta)
            hi = tn.needlet_eval(frame, j, k, theta + h)
            fd = (hi - lo) / (2 * h) if order == 1 else (hi - 2 * mid + lo) / h**2
            got = tn.needlet_eval(frame, j, k, theta, m=(order,))
            # relative at the needlet's own scale: B^(j(|m|+1/2)) bounds the
            # derivative sup-norm, so near-zero crossings do not blow up
            scale = max(abs(fd), 2.0 ** (j * (order + 0.5)))
            worst[order] = max(worst[order], abs(got - fd) / scale)
    elapsed = time.perf_counter() - start
    report(
        3,
        worst[1] < 1e-5 and worst[2] < 1e-5 and elapsed < 10.0,
        f"first/second derivative vs centered differences at 100 random points "
        f"(rel errs {worst[1]:.2e}, {worst[2]:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_4_derivative_coefficient_identity():
    frame = tn.NeedletFrame(2.0, 1, 3)
    wn = tn.wrapped_normal(1.0)
    plain = tn.analyze(frame, wn)
    derived = tn.analyze(frame, wn, m=(1,))
    grid = tn.uniform_grid(512, 1)
    worst = 0.0
    for j in range(4):
        # K_j <= 33 columns of needlet_eval: psi_{j,k} and its derivative on the grid
        psi = [tn.needlet_eval(frame, j, k, grid) for k in range(frame.cubature(j).K)]
        dpsi = [tn.needlet_eval(frame, j, k, grid, m=(1,)) for k in range(frame.cubature(j).K)]
        lhs = np.column_stack(psi) @ derived.levels[j]
        rhs = np.column_stack(dpsi) @ plain.levels[j]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(
        4,
        worst < 1e-8,
        f"per-level synthesis of derivative coefficients equals derivative of "
        f"synthesis (sup err {worst:.2e})",
    )


def test_criterion_5_norm_scaling_across_levels():
    frame = tn.NeedletFrame(2.0, 1, 4)
    spreads = []
    for m in ((0,), (1,)):
        for p in (1.0, 2.0, 4.0):
            ratios = []
            for j in range(1, 5):
                norm = tn.needlet_lp_norm(frame, j, m=m, p=p)
                ratios.append(norm / 2.0 ** (j * (sum(m) + 0.5 - 1.0 / p)))
            spreads.append(max(ratios) / min(ratios))
    report(
        5,
        max(spreads) < 4.0,
        f"L^p norms track B^(j(|m|+d(1/2-1/p))) for p in (1,2,4), m in ((0),(1)) "
        f"(worst spread {max(spreads):.2f})",
    )


def test_criterion_6_empirical_coefficients_unbiased_with_bounded_variance():
    start = time.perf_counter()
    frame = tn.NeedletFrame(2.0, 1, 2)
    wn = tn.wrapped_normal(1.0)
    truth = tn.analyze(frame, wn, m=(1,)).levels[2]
    reps, n = 2000, 200
    stack = np.empty((reps, truth.size))
    for r in range(reps):
        rng = np.random.default_rng(tn.child_seed(77, r))
        X = wn.sampler(rng, n)
        stack[r] = tn.empirical_coefficients(frame, X, jmax=2, m=(1,)).levels[2]
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / math.sqrt(reps)
    zmax = float(np.max(np.abs(mean - truth) / stderr))
    var_bound = 1.2 * wn.sup_norm * tn.needlet_l2_norm(frame, 2, m=(1,)) ** 2 / n
    var_max = float(np.max(stack.var(axis=0, ddof=1)))
    elapsed = time.perf_counter() - start
    report(
        6,
        zmax < 4.0 and var_max <= var_bound and elapsed < 60.0,
        f"level-2 derivative coefficients unbiased over {reps} replications "
        f"(max |z| {zmax:.2f}, max var {var_max:.4f} <= {var_bound:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_7_flat_density_zero_survivors(reference_run):
    out, elapsed = reference_run
    reps = out.config.replications
    clean = 0
    for r in range(reps):
        counts_ok = all(
            row.surviving == 0
            for row in out.count_rows
            if row.replication == r and row.kappa0 == 5.0
        )
        risk_ok = all(
            row.risk == 0.0
            for row in out.risk_rows
            if row.replication == r and row.kappa0 == 5.0 and row.method == "grid-quadrature"
        )
        clean += counts_ok and risk_ok
    report(
        7,
        clean >= 0.9 * reps and elapsed < 120.0,
        f"largest threshold removes everything and zeroes the risk on the flat "
        f"density in {clean}/{reps} replications ({elapsed:.0f}s)",
    )


def test_criterion_8_survivors_nonincreasing_in_threshold(reference_run):
    out, _ = reference_run
    ks = sorted(out.config.kappa0)
    frac = {}
    for row in out.count_rows:
        frac[(row.replication, row.j, row.kappa0)] = row.fraction
    monotone = all(
        frac[(r, j, a)] >= frac[(r, j, b)]
        for r in range(out.config.replications)
        for j in range(out.config.resolved_J())
        for a, b in zip(ks, ks[1:])
    )
    report(
        8,
        monotone,
        f"surviving fraction nonincreasing across kappa0={ks} at every level of "
        f"every replication",
    )


def test_criterion_9_risk_decreases_with_sample_size():
    start = time.perf_counter()
    means, stderrs = [], []
    for n in (500, 2000, 8000, 32000):
        cfg = tn.config_from_dict(
            {
                "density": "wrapped_normal(1.0)",
                "d": 1,
                "B": 2,
                "m": [1],
                "n": n,
                "replications": 50,
                "kappa0": [1.0],
                "rules": ["hard"],
                "J": "auto",
                "grid": 257,
                "p": [2],
                "seed": 424242,
                "risk_method": "grid-quadrature",
                "literal_paper_kappa": False,
            }
        )
        agg = tn.run_experiment(cfg, threads=4).risk_aggregates()[0]
        means.append(agg["mean"])
        stderrs.append(agg["stderr"])
    elapsed = time.perf_counter() - start
    inversions = [
        i
        for i in range(3)
        if means[i + 1] > means[i]
        and means[i + 1] - means[i] > math.hypot(stderrs[i], stderrs[i + 1])
    ]
    soft = sum(1 for i in range(3) if means[i + 1] > means[i])
    shown = ", ".join(f"{v:.4f}" for v in means)
    report(
        9,
        not inversions and soft <= 1 and elapsed < 900.0,
        f"mean risk over n=(500,2000,8000,32000) is ({shown}), nonincreasing "
        f"with at most one within-noise inversion ({elapsed:.0f}s)",
    )


def test_criterion_10_thread_count_does_not_change_output(tmp_path):
    one, eight = tmp_path / "one", tmp_path / "eight"
    assert main(["bench", CONFIG, "--out", str(one), "--threads", "1"]) == 0
    assert main(["bench", CONFIG, "--out", str(eight), "--threads", "8"]) == 0
    names = ("bench_counts.csv", "bench_risks.csv", "bench_risks_proxy.csv")
    identical = all((one / name).read_bytes() == (eight / name).read_bytes() for name in names)
    report(
        10,
        identical,
        "benchmark CSVs byte-identical at thread counts 1 and 8",
    )
