"""Test the command-line interface in process: outputs, warnings, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torneed as tn
from torneed.cli import DataError, _load_samples, main
from torneed.harmonics import wrap_angles


@pytest.fixture(scope="module")
def uniform_8000(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "uniform_8000.csv"
    rng = np.random.default_rng(31415)
    np.savetxt(path, rng.uniform(0, 2 * np.pi, 8000), fmt="%.17g")
    return path


@pytest.fixture(scope="module")
def kept_artifacts(uniform_8000, tmp_path_factory):
    # kappa=0 keeps every coefficient: a fully populated artifact pair
    stem = str(tmp_path_factory.mktemp("art") / "kept")
    code = main(
        ["estimate", str(uniform_8000), "--m", "1", "--kappa", "0", "--J", "4", "--out", stem]
    )
    assert code == 0
    return stem


# ---------------------------------------------------------------- frame-info


def test_frame_info_level_table(capsys):
    assert main(["frame-info", "--B", "2", "--d", "1", "--J", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("B=2  d=1  jmax=1")
    assert lines[1].startswith("window moments: I0=0.75")
    rows = [line.split() for line in lines[3:]]
    assert [r[:3] for r in rows] == [["0", "2", "5"], ["1", "4", "9"]]


def test_frame_info_single_level(capsys):
    assert main(["frame-info", "--B", "2", "--d", "2", "--J", "0", "--m", "1,0"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.strip().split("\n")[3:]]
    assert len(rows) == 1
    # shell 0 in d=2: the four axis frequencies plus the four diagonals
    assert rows[0].split()[:3] == ["0", "8", "25"]


def test_frame_info_rejects_bad_base(capsys):
    assert main(["frame-info", "--B", "1", "--d", "1", "--J", "2"]) == 2
    assert "--B must satisfy B > 1" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------- estimate


def test_estimate_calibrated_thresholds_kill_uniform_noise(uniform_8000, tmp_path, capsys):
    # flat density, first derivative: every empirical coefficient is pure
    # noise and the calibrated threshold at its largest removes them all
    stem = str(tmp_path / "est")
    code = main(
        [
            "estimate",
            str(uniform_8000),
            "--m",
            "1",
            "--kappa0",
            "5",
            "--M",
            f"{1 / (2 * math.pi):.17g}",
            "--J",
            "4",
            "--out",
            stem,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "level 0: 0/5" in out
    assert "level 3: 0/33" in out

    raw_levels, kept_levels, _ = tn.read_estimator_csv(f"{stem}_coefficients.csv")
    assert sum(lv.size for lv in kept_levels) == 64
    assert all(np.all(lv == 0) for lv in kept_levels)
    assert any(np.any(lv != 0) for lv in raw_levels)

    meta = json.loads(open(f"{stem}_meta.json").read())
    assert meta["J"] == 4 and meta["rule"] == "hard" and meta["n"] == 8000
    assert meta["kappa"] == pytest.approx(0.6832308068478159, rel=1e-12)


def test_estimate_zero_kappa_keeps_all(kept_artifacts):
    raw_levels, kept_levels, taus = tn.read_estimator_csv(f"{kept_artifacts}_coefficients.csv")
    assert [lv.size for lv in kept_levels] == [5, 9, 17, 33]
    assert taus == [0.0, 0.0, 0.0, 0.0]
    for raw, kept in zip(raw_levels, kept_levels):
        np.testing.assert_array_equal(raw, kept)


def test_estimate_default_truncation_level(uniform_8000, tmp_path, capsys):
    stem = str(tmp_path / "auto")
    code = main(["estimate", str(uniform_8000), "--m", "1", "--kappa", "0.5", "--out", stem])
    assert code == 0
    assert json.loads(open(f"{stem}_meta.json").read())["J"] == 3
    assert "J=3" in capsys.readouterr().out


def test_estimate_grid_output_with_truth(uniform_8000, tmp_path):
    stem = str(tmp_path / "grid")
    code = main(
        [
            "estimate",
            str(uniform_8000),
            "--m",
            "1",
            "--kappa0",
            "5",
            "--M",
            f"{1 / (2 * math.pi):.17g}",
            "--J",
            "3",
            "--grid",
            "33",
            "--density",
            "uniform",
            "--out",
            stem,
        ]
    )
    assert code == 0
    lines = open(f"{stem}_grid.csv").read().strip().split("\n")
    assert lines[0] == "theta_1,value,truth"
    assert len(lines) == 34
    cells = np.array([line.split(",") for line in lines[1:]], dtype=float)
    np.testing.assert_array_equal(cells[:, 1], 0.0)  # everything thresholded away
    np.testing.assert_array_equal(cells[:, 2], 0.0)  # flat density, zero derivative


def test_estimate_warns_about_out_of_range_angles(tmp_path, capsys):
    data = tmp_path / "wild.csv"
    data.write_text("0.5\n-1.0\n7.5\n2.0\n1.0\n")
    stem = str(tmp_path / "wild")
    code = main(["estimate", str(data), "--m", "1", "--kappa", "1", "--J", "1", "--out", stem])
    assert code == 0
    assert "warning: wrapped 2 row(s) into [0, 2pi)" in capsys.readouterr().err


def test_estimate_missing_data_leaves_no_output(tmp_path, capsys):
    stem = str(tmp_path / "none")
    code = main(["estimate", str(tmp_path / "ghost.csv"), "--m", "1", "--kappa", "1", "--out", stem])
    assert code == 1
    assert not list(tmp_path.glob("none_*"))


def test_estimate_malformed_rows_name_line_numbers(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("0.5\nnot-a-number\n1.0\n2.0,3.0\n1.5\n")
    code = main(["estimate", str(data), "--m", "1", "--kappa", "1", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "at line 2, 4" in err
    assert not list(tmp_path.glob("x_*"))


def _load_samples_by_line(path, d):
    """Reference reader: the straightforward per-line loop _load_samples must agree with."""
    bad, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
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
                continue
            rows.append(vals)
    if bad:
        shown = ", ".join(str(b) for b in bad[:20])
        more = f" and {len(bad) - 20} more" if len(bad) > 20 else ""
        raise DataError(
            f"{path}: malformed rows (need {d} finite comma-separated angles) "
            f"at line {shown}{more}"
        )
    if not rows:
        raise DataError(f"{path}: no sample rows")
    X = np.asarray(rows, dtype=float)
    outside = int(np.count_nonzero(np.any((X < 0) | (X >= tn.TWO_PI), axis=1)))
    return wrap_angles(X), outside


def _outcome(reader, path, d):
    try:
        X, outside = reader(path, d)
    except DataError as exc:
        return str(exc)
    return X.tobytes(), X.shape, outside


def _assert_same_parse(path, text, d):
    Path(path).write_text(text, encoding="utf-8")
    assert _outcome(_load_samples, path, d) == _outcome(_load_samples_by_line, path, d)


@pytest.mark.parametrize(
    "text, d",
    [
        ("0.5\n\n  \n1.0\n7.5\n-1\n", 1),  # blank and whitespace-only lines
        ("0.5,1\r\n 1.5 , 2\r\n\r\n3,1_0\n", 2),  # CRLF, padding, digit separators
        ("0.5,1\n2\n1,2,3\n", 2),  # wrong widths
        ("0.5\nabc\n1.0\n\n0x1\n1,\n", 1),  # bad tokens
        ("0.5\nnan\n-inf\n1e999\n2\n", 1),  # non-finite values
        ("\n".join(["x"] * 25 + ["0.5"]), 1),  # more than 20 bad lines
        ("\n".join(["x"] * 20 + ["0.5"]), 1),  # exactly 20 bad lines
        ("\n \n\n", 1),  # no rows at all
        ("0.25,6.5,-0.5\n1,2,3", 3),  # last line without newline
    ],
)
def test_load_samples_matches_line_reader(tmp_path, text, d):
    _assert_same_parse(tmp_path / "s.csv", text, d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    lines=st.lists(
        st.lists(
            st.sampled_from(["0.5", " 1.5", "7 ", "-2.25", "1_0", "nan", "inf", "", "x", "1e999"]),
            min_size=1,
            max_size=3,
        ).map(",".join)
        | st.sampled_from(["", "  ", "\t"]),
        max_size=30,
    ),
    d=st.integers(1, 3),
)
def test_load_samples_matches_line_reader_on_random_files(tmp_path_factory, lines, d):
    path = tmp_path_factory.mktemp("fuzz") / "s.csv"
    _assert_same_parse(path, "\n".join(lines), d)


def test_estimate_needs_enough_samples(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("0.5\n1.0\n")
    code = main(["estimate", str(data), "--m", "1", "--kappa", "1", "--out", str(tmp_path / "t")])
    assert code == 1
    assert "at least 3 samples" in capsys.readouterr().err


def test_estimate_kappa_flags_are_exclusive(tmp_path, capsys):
    data = tmp_path / "ok.csv"
    data.write_text("0.5\n1.0\n1.5\n2.0\n")
    base = ["estimate", str(data), "--m", "1", "--out", str(tmp_path / "k")]
    assert main(base + ["--kappa", "1", "--kappa0", "2", "--M", "0.2"]) == 2
    assert main(base) == 2
    assert main(base + ["--kappa0", "2"]) == 2  # --M missing
    assert main(base + ["--kappa", "1", "--M", "0.2"]) == 2
    capsys.readouterr()
    assert not list(tmp_path.glob("k_*"))


# ---------------------------------------------------------------- bench


def bench_config(**over):
    data = {
        "density": "wrapped_normal(1.0)",
        "d": 1,
        "B": 2,
        "m": [1],
        "n": 300,
        "replications": 2,
        "kappa0": [1.0],
        "rules": ["hard"],
        "J": 2,
        "grid": 33,
        "p": [2],
        "seed": 777,
        "risk_method": "grid-quadrature",
        "literal_paper_kappa": False,
    }
    data.update(over)
    return data


def test_bench_outputs_and_thread_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config()))
    one, four = tmp_path / "one", tmp_path / "four"
    assert main(["bench", str(cfg), "--out", str(one)]) == 0
    assert main(["bench", str(cfg), "--out", str(four), "--threads", "4"]) == 0
    for name in ("bench_counts.csv", "bench_risks.csv", "bench_report.json"):
        assert (one / name).read_bytes() == (four / name).read_bytes()
    out = capsys.readouterr().out
    assert "ran 2 replication(s)" in out
    payload = tn.load_report(one / "bench_report.json")
    assert len(payload["counts"]) == 4  # 2 reps x 2 levels
    assert len(payload["risks"]) == 2


def test_paper_table3_bench_report_identical_across_threads(tmp_path):
    # the paper's own config: the reproducibility contract covers the sample
    # spectrum's blocked contractions, so the report may not change by a byte
    cfg = Path(__file__).resolve().parent.parent / "configs" / "paper_table3.json"
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["bench", str(cfg), "--out", str(one), "--threads", "1"]) == 0
    assert main(["bench", str(cfg), "--out", str(two), "--threads", "2"]) == 0
    assert (one / "bench_report.json").read_bytes() == (two / "bench_report.json").read_bytes()


def test_bench_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config()))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o"), "--seed", "9"]) == 0
    payload = tn.load_report(tmp_path / "o" / "bench_report.json")
    assert payload["config"]["seed"] == 9
    assert payload["child_seeds"][0] == str(tn.child_seed(9, 0))


def test_bench_rejects_bad_replications(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(replications=0)))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "replications" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(typo=True)))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'typo'" in capsys.readouterr().err


def test_bench_rejects_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ this is not json")
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_bench_missing_config_is_io_error(tmp_path, capsys):
    assert main(["bench", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------- eval-grid


def test_eval_grid_matches_estimate_grid(kept_artifacts, tmp_path):
    out = tmp_path / "vals.csv"
    assert main(["eval-grid", kept_artifacts, "--grid", "65", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta_1,value"
    assert len(lines) == 66
    # synthesizing the stored coefficients reproduces the library evaluation
    raw_levels, kept_levels, _ = tn.read_estimator_csv(f"{kept_artifacts}_coefficients.csv")
    frame = tn.build_frame(2.0, 1, 3)
    coeffs = tn.CoefficientArray((1,), kept_levels, "empirical")
    grid = tn.uniform_grid(65, 1)
    expect = tn.synthesize(frame, coeffs, grid)
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_eval_grid_truth_column(kept_artifacts, tmp_path):
    out = tmp_path / "vals.csv"
    code = main(
        ["eval-grid", kept_artifacts, "--grid", "17", "--density", "uniform", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta_1,value,truth"
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_eval_grid_missing_artifacts(tmp_path, capsys):
    assert main(["eval-grid", str(tmp_path / "ghost"), "--grid", "17", "--out", str(tmp_path / "v")]) == 1
    assert not (tmp_path / "v").exists()


def test_eval_grid_rejects_coefficient_gap(kept_artifacts, tmp_path, capsys):
    # drop one row of level 2: a hole in k, not a silently zero coefficient
    stem = str(tmp_path / "holed")
    with open(f"{stem}_meta.json", "w") as fh:
        fh.write(open(f"{kept_artifacts}_meta.json").read())
    lines = open(f"{kept_artifacts}_coefficients.csv").read().split("\n")
    with open(f"{stem}_coefficients.csv", "w") as fh:
        fh.write("\n".join(line for line in lines if not line.startswith("2,3,")))
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(tmp_path / "v")]) == 2
    assert "level 2 is missing k=3" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_eval_grid_detects_level_mismatch(kept_artifacts, tmp_path, capsys):
    # copy the artifacts, then claim one more level than the CSV holds
    meta = json.loads(open(f"{kept_artifacts}_meta.json").read())
    meta["J"] = meta["J"] + 1
    stem = str(tmp_path / "broken")
    with open(f"{stem}_meta.json", "w") as fh:
        json.dump(meta, fh)
    with open(f"{stem}_coefficients.csv", "w") as fh:
        fh.write(open(f"{kept_artifacts}_coefficients.csv").read())
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(tmp_path / "v")]) == 1
    assert "expected coefficients for 5 level(s)" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


# ---------------------------------------------------------------- runtime dependencies

_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
from torneed.cli import main

work = sys.argv[1]
assert main(["frame-info", "--B", "2", "--d", "1", "--J", "2"]) == 0
np.savetxt(f"{work}/x.csv", np.random.default_rng(5).uniform(0, 6.28, 200), fmt="%.17g")
assert main([
    "estimate", f"{work}/x.csv", "--m", "1", "--kappa0", "1", "--M", "0.4",
    "--J", "2", "--out", f"{work}/e",
]) == 0
assert main(["eval-grid", f"{work}/e", "--grid", "9", "--out", f"{work}/g.csv"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(tn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "['scipy']"  # only the None placeholder
    assert (tmp_path / "g.csv").read_text().count("\n") == 10
