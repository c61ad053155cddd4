"""perfbench/spans.py wraps torneed functions by the names their callers look
them up by; installing its tracer must keep working as the package changes."""

import importlib.util
from pathlib import Path

import numpy as np

import torneed
import torneed.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_trace_and_uninstall():
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, torneed)
    installed = list(tracer._installed)
    try:
        config = torneed.config_from_dict(
            {
                "density": "wrapped_normal(1.0)", "d": 1, "B": 2, "m": [1], "n": 200,
                "replications": 1, "kappa0": [1.0], "rules": ["hard", "soft"], "J": 2,
                "grid": 17, "p": [1, 2], "seed": 5, "risk_method": "both",
                "literal_paper_kappa": False,
            }
        )
        torneed.bench.run_experiment(config)
        frame = torneed.NeedletFrame(2.0, 1, 1)
        X = np.random.default_rng(5).uniform(0, 2 * np.pi, (200, 1))
        rule = torneed.ThresholdRule("hard", 1.0, (1,), 200, 2.0)
        est = torneed.cli.estimate(frame, X, (1,), rule, J_override=2)
        bench_syntheses = tracer.calls("frame.synthesize")
        est.evaluate(torneed.uniform_grid(17, 1))
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, attr
    # run_experiment thresholds its estimator's rows through estimation: one
    # span per rule kind on the flat layout in the bench run, then one in the
    # estimate call
    assert tracer.calls("estimation.threshold") == 2 + 1
    # the bench run reduces each sample to its spectrum and maps a whole chunk
    # through the replication plan, never entering empirical_coefficients; only
    # the estimate call does
    assert tracer.calls("estimation.empirical_coefficients") == 1
    assert tracer.calls("estimation.estimate") == 1
    assert tracer.calls("frame.analyze") == 1
    # the bench run scores p = 1 and p = 2 from one box spectrum per chunk and
    # never enters synthesize; the estimator's own evaluation does, once
    assert bench_syntheses == 0
    assert tracer.calls("frame.synthesize") == 1
    assert tracer.calls("frame.build") == 2
