"""Time torneed's set-up in a fresh interpreter; prints one JSON line.

    python3 perfbench/setup_probe.py cli            # import torneed.cli only
    python3 perfbench/setup_probe.py '<config json>'  # import torneed + experiment set-up

The experiment set-up is the work run_experiment does before its first
replication: validate the config, build the density, the frame and one
calibrated rule per (rule, kappa0), the truth on the grid, and the true
coefficients when the proxy risk is on. The caller puts src/ on PYTHONPATH.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(arg):
    if arg == "cli":
        import torneed.cli  # noqa: F401

        import_s = time.perf_counter() - start
        return {"import_s": import_s, "setup_s": import_s}
    import torneed as tn

    import_s = time.perf_counter() - start
    cfg = tn.config_from_dict(json.loads(arg))
    density = tn.density_from_name(cfg.density, cfg.d)
    J = cfg.resolved_J()
    frame = tn.NeedletFrame(cfg.B, cfg.d, jmax=max(J, 0))
    for kind in cfg.rules:
        for k0 in cfg.kappa0:
            tn.calibrated_rule(
                kind,
                k0,
                density.sup_norm,
                frame.window,
                cfg.m,
                cfg.n,
                cfg.B,
                drop_sample_factor=cfg.literal_paper_kappa,
            )
    if cfg.risk_method in ("grid-quadrature", "both"):
        grid = tn.uniform_grid(cfg.grid, cfg.d)
        density.derivative(cfg.m, grid[:, 0] if cfg.d == 1 else grid)
    if cfg.risk_method in ("coefficient-proxy", "both") and J >= 1:
        tn.analyze(frame, density, cfg.m, jmax=J - 1)
    return {"import_s": import_s, "setup_s": time.perf_counter() - start}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
