"""In-memory spans around the calls the benchmark makes into torneed's layers.

The wrappers live here, outside the package: each one replaces a public
function at the name its caller looks it up by (``torneed.bench.analyze``,
``torneed.estimation.synthesize``, ...) and restores it on ``uninstall``.
A span is ``[name, start, end, parent]``; the parent is the index of the span
that was open when the call began, so the root of a chain identifies the
operation it belongs to.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._installed = []

    def traced(self, name, fn, count=None):
        """Return fn wrapped in a span; `name` may be a function of (args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            span = [label, time.perf_counter(), None, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return wrapper

    def wrap(self, owner, attr, name, count=None, post=None):
        """Replace owner.attr by a traced wrapper; `post` may rewrite the result."""
        original = getattr(owner, attr)
        fn = original
        if post is not None:

            def fn(*args, **kwargs):
                return post(original(*args, **kwargs))

        setattr(owner, attr, self.traced(name, fn, count))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive_s(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_s(self, name):
        """Time in `name` spans not covered by their direct child spans."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[3] in own:
                own[s[3]] -= s[2] - s[1]
        return sum(own.values())


def _shell_sizes(frame, levels):
    return [frame.shell(j).shape[0] for j in levels]


def _count_sample_evals(args, kwargs, result):
    # computed from array sizes: one complex exponential per (sample, shell frequency)
    frame, samples = args[0], args[1]
    n = np.shape(samples)[0]
    return {"sample_exp_evals": n * sum(_shell_sizes(frame, range(len(result.levels))))}


def _count_synthesis_evals(args, kwargs, result):
    # computed from array sizes of the dense path: pixel phases plus grid phases
    # for every level holding a nonzero coefficient
    frame, coeffs, grid = args[0], args[1], args[2]
    npts = np.shape(grid)[0]
    live = [j for j, lv in enumerate(coeffs.levels) if np.any(lv)]
    total = sum(
        (frame.cubature(j).K + npts) * nf for j, nf in zip(live, _shell_sizes(frame, live))
    )
    return {"synthesize_exp_evals": total}


def install(tracer, torneed):
    """Wrap every layer boundary the workloads cross; modules come from `torneed`."""
    bench, cli, estimation, frame = torneed.bench, torneed.cli, torneed.estimation, torneed.frame

    def traced_density(density):
        return dataclasses.replace(
            density,
            pdf=tracer.traced("densities.truth", density.pdf),
            derivative=tracer.traced("densities.truth", density.derivative),
            sampler=tracer.traced("densities.sampler", density.sampler),
        )

    tracer.wrap(bench, "run_experiment", "bench.run_experiment")
    for module in (bench, cli):
        tracer.wrap(module, "density_from_name", "densities.build", post=traced_density)
    tracer.wrap(frame.NeedletFrame, "__init__", "frame.build")
    tracer.wrap(frame.NeedletWindow, "moment", "frame.window_moment")
    tracer.wrap(bench, "analyze", "frame.analyze")
    for module in (estimation, cli):
        tracer.wrap(module, "synthesize", "frame.synthesize", count=_count_synthesis_evals)
    for module in (bench, estimation):
        tracer.wrap(
            module,
            "empirical_coefficients",
            "estimation.empirical_coefficients",
            count=_count_sample_evals,
        )
        tracer.wrap(module, "apply_threshold", "estimation.threshold")
    tracer.wrap(cli, "estimate", "estimation.estimate")
    tracer.wrap(cli, "write_estimator_csv", "estimation.csv_write")
    tracer.wrap(cli, "write_estimator_meta", "estimation.csv_write")
    tracer.wrap(cli, "read_estimator_csv", "estimation.csv_read")
    tracer.wrap(cli, "main", lambda args, kwargs: "cli.main_" + args[0][0].replace("-", "_"))
