"""Needlet frames on the d-torus and thresholded density-derivative estimation.

The pieces compose bottom-up: `harmonics` (Fourier basis, frequency shells),
`frame` (window, cubature, needlets, the spectral core), `estimation`
(analysis and empirical coefficients through one level map, thresholds,
truncation, synthesis), `densities` (test densities with exact derivatives
and samplers), `bench` (seeded Monte Carlo risk experiments), `cli`
(command-line front end).

`bench` and its names load on first use (PEP 562 `__getattr__`), so that
`import torneed.cli` for `estimate`, `eval-grid` or `frame-info` does not
pay for the experiment runner and its thread pool.
"""

import importlib

from .densities import (
    density_from_name,
    product_density,
    uniform_density,
    wrapped_normal,
)
from .estimation import (
    DerivativeEstimator,
    ThresholdRule,
    analyze,
    apply_threshold,
    calibrated_rule,
    empirical_coefficients,
    estimate,
    read_estimator_csv,
    synthesize,
    threshold_value,
    truncation_level,
    write_estimator_csv,
    write_estimator_meta,
)
from .frame import (
    CoefficientArray,
    NeedletFrame,
    NeedletWindow,
    besov_sequence_norm,
    localization_profile,
    needlet_eval,
    needlet_l2_norm,
    needlet_lp_norm,
    uniform_grid,
)
from .harmonics import (
    TWO_PI,
    frequency_shell,
    geodesic_distance,
    wrap_angles,
)

__version__ = "0.1.0"

# resolved from torneed.bench by __getattr__ on first use
_BENCH_NAMES = (
    "ConfigError",
    "ExperimentConfig",
    "RiskReport",
    "child_seed",
    "config_from_dict",
    "emit_report",
    "load_config",
    "lp_distance",
    "run_experiment",
)

__all__ = [
    "TWO_PI",
    "CoefficientArray",
    "ConfigError",
    "DerivativeEstimator",
    "ExperimentConfig",
    "NeedletFrame",
    "NeedletWindow",
    "RiskReport",
    "ThresholdRule",
    "analyze",
    "apply_threshold",
    "besov_sequence_norm",
    "calibrated_rule",
    "child_seed",
    "config_from_dict",
    "density_from_name",
    "emit_report",
    "empirical_coefficients",
    "estimate",
    "frequency_shell",
    "geodesic_distance",
    "load_config",
    "localization_profile",
    "lp_distance",
    "needlet_eval",
    "needlet_l2_norm",
    "needlet_lp_norm",
    "product_density",
    "read_estimator_csv",
    "run_experiment",
    "synthesize",
    "write_estimator_csv",
    "write_estimator_meta",
    "threshold_value",
    "truncation_level",
    "uniform_density",
    "uniform_grid",
    "wrap_angles",
    "wrapped_normal",
    "__version__",
]


def __getattr__(name):
    # import_module, not `from . import bench`: that looks `bench` up on this
    # package first and so calls __getattr__ again before the submodule is bound
    if name == "bench" or name in _BENCH_NAMES:
        bench = importlib.import_module(__name__ + ".bench")
        return bench if name == "bench" else getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
