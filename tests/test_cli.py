"""Test the command-line interface in process: outputs, warnings, exit codes."""

import contextlib
import dataclasses
import json
import math
import os
import gzip
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torneed as tn
from torneed.cli import _load_samples, _read_sample_lines, main
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
    # --J counts levels, as in estimate: --J 2 prints levels 0 and 1
    assert main(["frame-info", "--B", "2", "--d", "1", "--J", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("B=2  d=1  J=2")
    assert lines[1].startswith("window moments: I0=0.75")
    rows = [line.split() for line in lines[3:]]
    assert [r[:3] for r in rows] == [["0", "2", "5"], ["1", "4", "9"]]
    assert main(["frame-info", "--B", "2", "--d", "1", "--J", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3 and lines[1].startswith("window moments: I0=0.75")


def test_frame_info_single_level(capsys):
    assert main(["frame-info", "--B", "2", "--d", "2", "--J", "1", "--m", "1,0"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.strip().split("\n")[3:]]
    assert len(rows) == 1
    # shell 0 in d=2: the four axis frequencies plus the four diagonals
    assert rows[0].split()[:3] == ["0", "8", "25"]


def test_frame_info_rejects_bad_base(capsys):
    for B in ("1", "inf", "nan"):
        assert main(["frame-info", "--B", B, "--d", "1", "--J", "2"]) == 2
        assert "--B must satisfy B > 1" in capsys.readouterr().err
    # finite, but B**J leaves the float range
    assert main(["frame-info", "--B", "1e200", "--d", "1", "--J", "2"]) == 2
    assert "B=1e+200 with J=2 overflows a float" in capsys.readouterr().err


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

    meta = json.loads(Path(f"{stem}_meta.json").read_text())
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
    assert json.loads(Path(f"{stem}_meta.json").read_text())["J"] == 3
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
    lines = Path(f"{stem}_grid.csv").read_text().strip().split("\n")
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
    assert code == 2
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
        raise ValueError(
            f"{path}: malformed rows (need {d} finite comma-separated angles) "
            f"at line {shown}{more}"
        )
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    X = np.asarray(rows, dtype=float)
    outside = int(np.count_nonzero(np.any((X < 0) | (X >= tn.TWO_PI), axis=1)))
    return wrap_angles(X), outside


def _outcome(reader, path, d):
    try:
        X, outside = reader(path, d)
    except ValueError as exc:
        return str(exc)
    return X.tobytes(), X.shape, outside


def _assert_same_parse(path, text, d):
    Path(path).write_text(text, encoding="utf-8")
    assert _outcome(_load_samples, path, d) == _outcome(_load_samples_by_line, path, d)


# 10k rows of two 17-digit angles, as np.savetxt writes them
_CLEAN_ROWS = "".join(
    f"{a:.17g},{b:.17g}\n" for a, b in np.random.default_rng(2718).uniform(0, 7, (10000, 2))
)


@pytest.mark.parametrize(
    "text, d",
    [
        ("0.5\n\n  \n1.0\n7.5\n-1\n", 1),  # blank and whitespace-only lines
        ("0.5,1\r\n 1.5 , 2\r\n\r\n3,1_0\n", 2),  # CRLF, padding, digit separators
        ("0.5,1\r\n1.5,2\r\n", 2),  # CRLF in a file numpy's reader settles
        ("0.5\r1.0\n1.5", 1),  # a lone carriage return ends a line too
        ("0.5,1\n2\n1,2,3\n", 2),  # wrong widths
        ("0.5\nabc\n1.0\n\n0x1\n1,\n", 1),  # bad tokens
        ("0.5\nnan\n-inf\n1e999\n2\n", 1),  # non-finite values
        ("\n".join(["x"] * 25 + ["0.5"]), 1),  # more than 20 bad lines
        ("\n".join(["x"] * 20 + ["0.5"]), 1),  # exactly 20 bad lines
        ("\n \n\n", 1),  # no rows at all
        ("0.25,6.5,-0.5\n1,2,3", 3),  # last line without newline
        ("0.5\n# note\n1.0\n", 1),  # a comment line is a bad line, not a comment
        ('0.5\n"1.0"\n', 1),  # quoted token
        ("\ufeff0.5\n1.0\n", 1),  # UTF-8 byte order mark
        ("1,0\n", 1),  # two columns where one is asked for
        ("\u0663.5\n1.0\n", 1),  # Arabic-Indic digits, which float() accepts
        ("0x1p3\n", 1),  # hexadecimal float
        ("0.5\ninfinity\n", 1),
        ("", 1),  # 0-byte file
        ("\n\n\n", 2),  # only blank lines
        pytest.param(_CLEAN_ROWS, 2, id="clean-10k-rows"),
    ],
)
def test_load_samples_matches_line_reader(tmp_path, monkeypatch, text, d):
    line_reads = []

    def spy(fh, path, d):
        line_reads.append(path)
        return _read_sample_lines(fh, path, d)

    monkeypatch.setattr("torneed.cli._read_sample_lines", spy)
    _assert_same_parse(tmp_path / "s.csv", text, d)
    if text is _CLEAN_ROWS:
        assert line_reads == []  # numpy's reader settles a clean file alone


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_samples_reads_a_pipe_once(tmp_path, monkeypatch):
    # a pipe cannot be read twice: it goes to the line reader alone, which
    # must see every line (a whitespace-only one sends a file past numpy's reader)
    text = "0.5\n  \n1.0\n7.5\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.daemon = True
    writer.start()
    monkeypatch.setattr("torneed.cli._read_clean_samples", lambda *args: pytest.fail("numpy read a pipe"))
    X, outside = _load_samples(pipe, 1)
    writer.join(timeout=10)
    Xref, outside_ref = _load_samples_by_line(plain, 1)
    assert (X.tobytes(), X.shape, outside) == (Xref.tobytes(), Xref.shape, outside_ref)


def test_load_samples_in_range_holds_one_array(tmp_path):
    # every value in [0, 2pi), -0.0 among them: the parsed array is returned
    # itself with wrap_angles' bits, so the load holds one n x d array (and
    # the C reader's buffers), not a second wrapped copy beside it
    n = 100_000
    X = np.random.default_rng(11).uniform(0.0, tn.TWO_PI, n)
    X[::7] = -0.0
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{v:.17g}\n" for v in X.tolist()), encoding="utf-8")  # "-0" rows
    tracemalloc.start()
    try:
        got, outside = _load_samples(path, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outside == 0 and got.tobytes() == wrap_angles(X[:, None]).tobytes()
    assert peak < 1.5 * got.nbytes


def test_estimate_reads_only_the_named_file(tmp_path, capsys):
    # a compressed neighbour of a missing file is not read in its place
    with gzip.open(tmp_path / "s.csv.gz", "wt") as fh:
        fh.write("0.5\n1.0\n1.5\n2.0\n")
    out = str(tmp_path / "z")
    code = main(["estimate", str(tmp_path / "s.csv"), "--m", "1", "--kappa", "1", "--out", out])
    assert code == 1
    assert "No such file" in capsys.readouterr().err
    assert not list(tmp_path.glob("z_*"))


def test_estimate_rejects_data_that_is_not_utf8(tmp_path, capsys):
    # UTF-16 with its byte order mark: refused input content (exit 2)
    data = tmp_path / "utf16.csv"
    data.write_bytes("0.5\n1.0\n1.5\n".encode("utf-16"))
    code = main(["estimate", str(data), "--m", "1", "--kappa", "1", "--out", str(tmp_path / "u")])
    assert code == 2
    assert f"error: {data}: not UTF-8 text" in capsys.readouterr().err
    assert not list(tmp_path.glob("u_*"))


def test_estimate_needs_enough_samples(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("0.5\n1.0\n")
    code = main(["estimate", str(data), "--m", "1", "--kappa", "1", "--out", str(tmp_path / "t")])
    assert code == 2
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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kappa", "1", "--B", "inf"], "--B must satisfy B > 1"),
        (["--kappa", "1", "--B", "1e200", "--J", "2"], "B=1e+200 with J=2 overflows a float"),
        (["--kappa", "inf"], "--kappa must be nonnegative and finite"),
        (["--kappa0", "inf", "--M", "0.2"], "--kappa0 must be positive and finite"),
        (["--kappa0", "1", "--M", "inf"], "--M must be positive and finite"),
        # finite flags whose product kappa0 * M * I_1 overflows
        (["--kappa0", "1e300", "--M", "1e300"], "kappa must be nonnegative and finite"),
        (["--kappa", "1", "--grid", "9", "--density", "wrapped_normal(50)"], "too large"),
    ],
)
def test_estimate_rejects_unusable_numbers_before_writing(tmp_path, capsys, flags, message):
    data = tmp_path / "ok.csv"
    data.write_text("0.5\n1.0\n1.5\n2.0\n")
    assert main(["estimate", str(data), "--m", "1", "--out", str(tmp_path / "bad")] + flags) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("m, J", [("1000", "3"), ("400", "3"), (str(10**30), "2")])
def test_estimate_refuses_an_overflowing_derivative_order(tmp_path, capsys, m, J):
    # the top threshold factor B**((J-1)|m|) or the top frequency power
    # L**|m| leaves float range: refused input, not a traceback, and nothing written
    data = tmp_path / "ok.csv"
    data.write_text("0.5\n1.0\n1.5\n2.0\n")
    argv = ["estimate", str(data), "--m", m, "--kappa", "1", "--J", J]
    assert main(argv + ["--out", str(tmp_path / "bad")]) == 2
    message = f"derivative order |m|={m} with B=2 and J={J} overflows a float"
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("m, J", [("4", "8"), ("3", "10"), ("400", "2")])
def test_estimate_runs_deep_derivative_orders(tmp_path, capsys, m, J):
    # coefficients grow as about B^(j|m|) (1e5 at m = 4, J = 8; 1e188 at
    # m = 400, J = 2), and so does their rounding: the imaginary residue is
    # judged against the largest coefficient, not against 1e-9 alone
    data = tmp_path / "wn.csv"
    draws = np.mod(np.random.default_rng(3).normal(0.0, 1.0, 2000), 2 * np.pi)
    np.savetxt(data, draws, fmt="%.17g")
    argv = ["estimate", str(data), "--m", m, "--kappa", "1", "--J", J]
    assert main(argv + ["--out", str(tmp_path / "deep")]) == 0, capsys.readouterr().err
    raw, _, _ = tn.read_estimator_csv(tmp_path / "deep_coefficients.csv")
    assert len(raw) == int(J) and all(np.isfinite(lv).all() for lv in raw)


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
    payload = json.loads((one / "bench_report.json").read_text())
    assert len(payload["counts"]) == 4  # 2 reps x 2 levels
    assert len(payload["risks"]) == 2


def test_every_written_file_is_utf8_with_lf_line_ends(monkeypatch, tmp_path, uniform_8000):
    # a text file opened without newline="\n" takes the platform's line end,
    # CRLF on Windows, so its bytes would differ from those of a Linux run
    written = {}

    def recording_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        if "w" in mode:
            written[os.path.basename(file)] = (encoding, newline)
        return open(file, mode, buffering, encoding, errors, newline)

    for module in (tn.bench, tn.estimation, tn.cli):
        monkeypatch.setattr(module, "open", recording_open, raising=False)
    stem, truth = str(tmp_path / "e"), ["--density", "wrapped_normal(1.0)"]
    args = ["--m", "1", "--kappa", "0", "--J", "3", "--grid", "17", "--out", stem]
    assert main(["estimate", str(uniform_8000), *args, *truth]) == 0
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(tmp_path / "g.csv"), *truth]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(p=[1, 2], risk_method="both")))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert written == {
        name: ("utf-8", "\n")
        for name in (
            "e_coefficients.csv",
            "e_meta.json",
            "e_grid.csv",
            "g.csv",
            "bench_counts.csv",
            "bench_risks.csv",
            "bench_risks_proxy.csv",
            "bench_report.json",
        )
    }


def test_paper_table3_bench_report_identical_across_threads(tmp_path):
    # the paper's own config: the reproducibility contract covers the sample
    # spectrum's blocked contractions, so the report may not change by a byte
    cfg = Path(__file__).resolve().parent.parent / "configs" / "paper_table3.json"
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["bench", str(cfg), "--out", str(one), "--threads", "1"]) == 0
    assert main(["bench", str(cfg), "--out", str(two), "--threads", "2"]) == 0
    assert (one / "bench_report.json").read_bytes() == (two / "bench_report.json").read_bytes()


def test_d2_bench_outputs_identical_across_threads(tmp_path):
    # replication threads share one read-only plan; a d=2 run with both rule
    # kinds, three kappa0 and both risk methods may not change by a byte
    cfg = tmp_path / "cfg.json"
    over = {
        "density": "product(wrapped_normal(1.0),wrapped_normal(1.0))",
        "d": 2,
        "m": [1, 0],
        "n": 400,
        "replications": 4,
        "kappa0": [0.25, 1.0, 2.5],
        "rules": ["hard", "soft"],
        "J": 2,
        "grid": 17,
        "p": [2, "inf"],
        "risk_method": "both",
    }
    cfg.write_text(json.dumps(bench_config(**over)))
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["bench", str(cfg), "--out", str(one), "--threads", "1"]) == 0
    assert main(["bench", str(cfg), "--out", str(two), "--threads", "2"]) == 0
    names = sorted(path.name for path in one.iterdir())
    assert names == sorted(path.name for path in two.iterdir())
    assert "bench_risks_proxy.csv" in names
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_a_failing_replication_exits_1_naming_it_and_its_cause(tmp_path, capsys, monkeypatch):
    # a draw of NaN fails inside replication 0: a runtime failure, not a
    # usage error, and no report is written
    real = tn.bench.density_from_name

    def nan_draw_density(name, d):
        return dataclasses.replace(
            real(name, d), draw=lambda rng, out: np.full((out.size // d, d), np.nan)
        )

    monkeypatch.setattr(tn.bench, "density_from_name", nan_draw_density)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config()))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: replication 0 failed: samples contain non-finite values" in err
    assert not (tmp_path / "o").exists()


def test_a_failure_names_its_replication_inside_a_chunk(tmp_path, capsys, monkeypatch):
    # the five replications share one chunk; only replication 3 draws NaN,
    # and the error names it, not the chunk
    real = tn.bench.density_from_name
    config = bench_config(replications=5)
    bad = np.random.default_rng(tn.child_seed(config["seed"], 3)).bit_generator.state

    def draw_failing_at_3(name, d):
        density = real(name, d)

        def draw(rng, out):
            if rng.bit_generator.state == bad:
                return np.full((out.size // d, d), np.nan)
            return density.draw(rng, out)

        return dataclasses.replace(density, draw=draw)

    monkeypatch.setattr(tn.bench, "density_from_name", draw_failing_at_3)
    assert tn.bench.chunk_replications(1, config["grid"]) >= 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: replication 3 failed: samples contain non-finite values" in err
    assert not (tmp_path / "o").exists()


def test_a_nan_in_the_last_block_of_a_streamed_draw_names_its_replication(
    tmp_path, capsys, monkeypatch
):
    # the wrapped normal's draw streams: replication 1 draws its 100000 points
    # in three spectrum row blocks, each reduced before the next is drawn, and
    # only the last point of its last block is NaN; the run still exits 1
    # naming it, and no report is written
    real = tn.bench.density_from_name
    config = bench_config(n=100_000, replications=2)
    bad = np.random.default_rng(tn.child_seed(config["seed"], 1)).bit_generator.state
    target, blocks = [], []

    def nan_in_the_last_block(name, d):
        density = real(name, d)

        def draw(rng, out):
            if rng.bit_generator.state == bad:
                target.append(rng)
            points = density.draw(rng, out)
            if target and rng is target[0]:
                blocks.append(len(points))
                if sum(blocks) == config["n"]:
                    points[-1] = np.nan
            return points

        return dataclasses.replace(density, draw=draw)

    monkeypatch.setattr(tn.bench, "density_from_name", nan_in_the_last_block)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: replication 1 failed: samples contain non-finite values" in err
    rows, _ = tn.frame.spectrum_block_shape(config["n"], 1, 3)  # J = 2: L = 3
    assert blocks == [rows, rows, config["n"] - 2 * rows]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("order", [640, 645])
def test_an_order_that_overflows_the_truth_exits_2_at_set_up(tmp_path, capsys, order):
    # the size check passes both orders, but the wrapped normal's derivative of
    # order 640 overflows on the grid, which would make every risk NaN, and at
    # 645 the sample sum overflows as well: both are refused by name at
    # set-up, before any replication runs or any file is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(m=[order], n=60, grid=17)))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: derivative order |m|={order} overflows a float in the truth" in err
    assert "replication" not in err and "Warning" not in err
    assert not (tmp_path / "o").exists()
    if order == 640:  # the estimator itself is finite; lp_distance refuses the truth
        frame = tn.NeedletFrame(2.0, 1, 1)
        X = np.random.default_rng(1).uniform(0.0, 2 * np.pi, (60, 1))
        rule = tn.ThresholdRule("hard", 1.0, (order,), 60, 2.0)
        est = tn.estimate(frame, X, (order,), rule, J_override=2)
        density = tn.density_from_name("wrapped_normal(1.0)", 1)
        with pytest.raises(ValueError, match=rf"\|m\|={order} overflows a float in the truth"):
            tn.lp_distance(est, density, 2, 17)



def test_an_order_whose_sample_sums_could_overflow_exits_2_at_set_up(tmp_path, capsys):
    # the uniform truth's derivatives are all 0, so only the sample sums can
    # overflow: |S_l| <= n, and 60 times the level-1 shell's amplitudes at
    # |m| = 645 leave float range; bench refuses the order before any
    # replication runs, creating no directory, and estimate refuses it on 60
    # points before forming the sample spectrum
    refusal = "error: derivative order |m|=645 overflows a float in the sample sums of n=60 points"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(density="uniform", m=[645], n=60, grid=17)))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(refusal), lines
    assert not (tmp_path / "o").exists()

    data = tmp_path / "x.csv"
    np.savetxt(data, np.random.default_rng(1).uniform(0.0, 2 * np.pi, 60), fmt="%.17g")
    argv = ["estimate", str(data), "--m", "645", "--kappa", "1", "--J", "2"]
    assert main(argv + ["--out", str(tmp_path / "e")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(refusal), lines
    assert not list(tmp_path.glob("e_*"))


def test_cli_refuses_a_truth_that_overflows_before_writing(tmp_path, capsys):
    # the size check passes m = 200 and the estimator is finite, but the
    # wrapped normal's derivative of that order overflows on a 17-point grid:
    # estimate and eval-grid refuse the truth column by name, with no numpy
    # warning, before writing any file
    data = tmp_path / "x.csv"
    np.savetxt(data, np.random.default_rng(1).uniform(0.0, 2 * np.pi, 60), fmt="%.17g")
    flags = ["--m", "200", "--kappa", "1", "--J", "2"]
    truth = ["--grid", "17", "--density", "wrapped_normal(1.0)"]
    refusal = "error: derivative order |m|=200 overflows a float in the truth's derivative"

    assert main(["estimate", str(data), *flags, *truth, "--out", str(tmp_path / "bad")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(refusal)
    assert not list(tmp_path.glob("bad*"))

    assert main(["estimate", str(data), *flags, "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()
    assert main(["eval-grid", str(tmp_path / "e"), *truth, "--out", str(tmp_path / "g.csv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(refusal)
    assert not (tmp_path / "g.csv").exists()


def test_a_workspace_that_cannot_be_allocated_exits_1_naming_the_replication(
    tmp_path, capsys, monkeypatch
):
    # the chunk allocates its workspace before its first draw
    def no_memory(n, d, L):
        raise MemoryError(f"Unable to allocate the phase tables of {n} points")

    monkeypatch.setattr(tn.bench, "spectrum_buffer", no_memory)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(replications=5)))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: replication 0 failed: Unable to allocate the phase tables of" in err
    assert not (tmp_path / "o").exists()


def test_a_row_the_level_map_refuses_names_its_replication(tmp_path, capsys, monkeypatch):
    # the five replications share one chunk and one level map; only
    # replication 3's spectrum breaks S_{-l} = conj(S_l), and the refusal of
    # its imaginary residue names it, not the chunk
    real, calls = tn.bench.sample_spectrum, []

    def spectrum_broken_at_3(X, L, buffer=None):
        S = real(X, L, buffer)
        calls.append(L)
        if len(calls) == 4:
            S[L + 1] += 1e-3j
        return S

    monkeypatch.setattr(tn.bench, "sample_spectrum", spectrum_broken_at_3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(replications=5)))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: replication 3 failed: imaginary residue" in err
    assert "in empirical coefficients" in err
    assert not (tmp_path / "o").exists()


def test_bench_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config()))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o"), "--seed", "9"]) == 0
    payload = json.loads((tmp_path / "o" / "bench_report.json").read_text())
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


def test_bench_rejects_repeated_kappa0_before_writing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(kappa0=[1, 1.0])))
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "kappa0 lists 1.0 more than once" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "over, message",
    [
        ({"density": "wrapped_normal(10)"}, "sigma=10 is too large"),
        ({"kappa0": [1.0, math.inf]}, "kappa0 must be a nonempty list of positive finite numbers"),
    ],
)
def test_bench_rejects_unusable_numbers_before_writing(tmp_path, capsys, over, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(**over)))  # math.inf is written as Infinity
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    frame = tn.NeedletFrame(2.0, 1, 3)
    coeffs = tn.CoefficientArray((1,), kept_levels)
    grid = tn.uniform_grid(65, 1)
    expect = tn.synthesize(frame, coeffs, grid)
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_allclose(got, expect, atol=1e-12)


@pytest.mark.parametrize("density", ["wrapped_normal(1.0)", "wrapped_normal_literal(1.0)"])
def test_density_estimate_carries_the_mean_once(density, tmp_path):
    # m = 0: every path adds the mean (2pi)^-1 of a probability density, also
    # when the truth column shows the literal shape of mass 1/sqrt(2pi)
    truth = tn.density_from_name(density, 1)
    X = truth.sampler(np.random.default_rng(17), 2000)
    data = tmp_path / "sample.csv"
    np.savetxt(data, X, fmt="%.17g")
    stem, evaluated = str(tmp_path / "m0"), str(tmp_path / "eval.csv")
    flags = ["--grid", "65", "--density", density]
    estimate_args = ["estimate", str(data), "--m", "0", "--kappa", "0.5", "--J", "3"]
    assert main([*estimate_args, *flags, "--out", stem]) == 0
    assert main(["eval-grid", stem, *flags, "--out", evaluated]) == 0
    from_estimate = np.loadtxt(f"{stem}_grid.csv", delimiter=",", skiprows=1)
    from_eval = np.loadtxt(evaluated, delimiter=",", skiprows=1)

    rule = tn.ThresholdRule("hard", 0.5, (0,), 2000, 2.0)
    est = tn.estimate(tn.NeedletFrame(2.0, 1, 2), X, (0,), rule, J_override=3)
    grid = tn.uniform_grid(65, 1)
    values = est.evaluate(grid)
    assert np.mean(values) == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    np.testing.assert_allclose(from_estimate[:, 1], values, rtol=0, atol=1e-14)
    np.testing.assert_allclose(from_eval[:, 1], values, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(from_estimate[:, 2], truth.pdf(grid[:, 0]))
    # the risk compares that same estimate with the truth as given
    gap = math.sqrt(2 * math.pi / 65 * np.sum((values - truth.pdf(grid[:, 0])) ** 2))
    assert tn.lp_distance(est, truth, 2.0, 65) == pytest.approx(gap, rel=1e-12)


def test_estimator_frames_hold_levels_0_to_j_minus_1(uniform_8000, tmp_path, monkeypatch):
    built = []

    class Recording(tn.NeedletFrame):
        def __init__(self, B, d, jmax, grid=None):
            built.append(jmax)
            super().__init__(B, d, jmax, grid)

    monkeypatch.setattr(tn.cli, "NeedletFrame", Recording)
    monkeypatch.setattr(tn.bench, "NeedletFrame", Recording)
    for J in (0, 1, 3):
        stem = str(tmp_path / f"j{J}")
        common = ["--grid", "17", "--out"]
        estimate_args = ["estimate", str(uniform_8000), "--m", "1", "--kappa", "0", "--J", str(J)]
        assert main([*estimate_args, *common, stem]) == 0
        assert main(["eval-grid", stem, *common, str(tmp_path / f"j{J}.csv")]) == 0
        config = tn.config_from_dict(bench_config(J=J, replications=1))
        tn.run_experiment(config)
        assert built == [max(J - 1, 0)] * 3
        built.clear()


def test_eval_grid_truth_column(kept_artifacts, tmp_path):
    out = tmp_path / "vals.csv"
    code = main(
        ["eval-grid", kept_artifacts, "--grid", "17", "--density", "uniform", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta_1,value,truth"
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_grid_above_the_point_cap_is_a_usage_error(
    kept_artifacts, uniform_8000, tmp_path, capsys
):
    # 10^12 points would be refused by the allocator after estimate had
    # written its coefficients; the cap stops both commands before any output
    stem = str(tmp_path / "huge")
    base = ["estimate", str(uniform_8000), "--m", "1", "--kappa", "0", "--out", stem]
    assert main(base + ["--grid", str(10**12)]) == 2
    assert "evaluation grid of 1000000000000^1 points exceeds the cap 100000000" in (
        capsys.readouterr().err
    )
    assert not list(tmp_path.glob("huge_*"))
    assert main(["eval-grid", kept_artifacts, "--grid", str(10**8 + 1), "--out", stem]) == 2
    assert "evaluation grid of 100000001^1 points exceeds the cap" in capsys.readouterr().err
    assert not list(tmp_path.glob("huge*"))


def test_eval_grid_missing_artifacts(tmp_path, capsys):
    assert main(["eval-grid", str(tmp_path / "ghost"), "--grid", "17", "--out", str(tmp_path / "v")]) == 1
    assert not (tmp_path / "v").exists()


def test_eval_grid_rejects_coefficient_gap(kept_artifacts, tmp_path, capsys):
    # drop one row of level 2: a hole in k, not a silently zero coefficient
    stem = str(tmp_path / "holed")
    with open(f"{stem}_meta.json", "w") as fh:
        fh.write(Path(f"{kept_artifacts}_meta.json").read_text())
    lines = Path(f"{kept_artifacts}_coefficients.csv").read_text().split("\n")
    with open(f"{stem}_coefficients.csv", "w") as fh:
        fh.write("\n".join(line for line in lines if not line.startswith("2,3,")))
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(tmp_path / "v")]) == 2
    assert "level 2 is missing k=3" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("B", "2"),
        ("B", None),
        ("B", True),
        ("B", float("inf")),
        ("B", 1.0),
        ("d", None),
        ("d", 1.0),
        ("d", 0),
        ("J", 2.5),
        ("J", -1),
        ("m", None),
        ("m", [1.5]),
        ("m", [-1]),
        ("m", [1, 0]),
        ("m", 1),
    ],
)
def test_eval_grid_rejects_mistyped_meta(kept_artifacts, tmp_path, capsys, key, value):
    # the artifacts of kept_artifacts with one field of _meta.json replaced
    meta = json.loads(Path(f"{kept_artifacts}_meta.json").read_text())
    meta[key] = value
    stem = str(tmp_path / "mistyped")
    Path(f"{stem}_meta.json").write_text(json.dumps(meta))
    Path(f"{stem}_coefficients.csv").write_text(
        Path(f"{kept_artifacts}_coefficients.csv").read_text()
    )
    out = tmp_path / "v.csv"
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(out)]) == 2
    assert f"'{key}' must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["null", "5"])
def test_eval_grid_rejects_non_object_meta(kept_artifacts, tmp_path, capsys, text):
    stem = str(tmp_path / "scalar")
    Path(f"{stem}_meta.json").write_text(text)
    Path(f"{stem}_coefficients.csv").write_text(
        Path(f"{kept_artifacts}_coefficients.csv").read_text()
    )
    out = tmp_path / "v.csv"
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(out)]) == 2
    assert f"{stem}_meta.json: must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_eval_grid_names_a_meta_file_that_is_not_json(kept_artifacts, tmp_path, capsys):
    stem = str(tmp_path / "garbled")
    Path(f"{stem}_meta.json").write_text("{'B': 2.0}")
    Path(f"{stem}_coefficients.csv").write_text(
        Path(f"{kept_artifacts}_coefficients.csv").read_text()
    )
    out = tmp_path / "v.csv"
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(out)]) == 2
    assert f"error: {stem}_meta.json: not valid JSON (Expecting property name" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("row", ["0,1,0.5", "0,1,x,0.5,0.25"])
def test_eval_grid_names_the_malformed_coefficient_line(kept_artifacts, tmp_path, capsys, row):
    # line 3 of a copy of kept_artifacts' CSV gets too few fields, or a token
    # that is not a number
    stem = str(tmp_path / "garbled")
    Path(f"{stem}_meta.json").write_text(Path(f"{kept_artifacts}_meta.json").read_text())
    lines = Path(f"{kept_artifacts}_coefficients.csv").read_text().split("\n")
    lines[2] = row
    Path(f"{stem}_coefficients.csv").write_text("\n".join(lines))
    out = tmp_path / "v.csv"
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {stem}_coefficients.csv: line 3 is not a row j,k,raw,thresholded,tau" in err
    assert not out.exists()


def test_eval_grid_detects_level_mismatch(kept_artifacts, tmp_path, capsys):
    # copy the artifacts, then claim one more level than the CSV holds
    meta = json.loads(Path(f"{kept_artifacts}_meta.json").read_text())
    meta["J"] = meta["J"] + 1
    stem = str(tmp_path / "broken")
    with open(f"{stem}_meta.json", "w") as fh:
        json.dump(meta, fh)
    with open(f"{stem}_coefficients.csv", "w") as fh:
        fh.write(Path(f"{kept_artifacts}_coefficients.csv").read_text())
    assert main(["eval-grid", stem, "--grid", "17", "--out", str(tmp_path / "v")]) == 2
    assert "expected coefficients for 5 level(s)" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


# ---------------------------------------------------------------- input contract


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail the test instead of hanging it when the block runs past `seconds`.

    pytest.fail raises an exception main does not catch, so it ends a
    command that never returns.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _refused_in_time(argv, work, capsys, seconds=1.0):
    """Run main under a time limit; it must exit 2 within `seconds`, write nothing, print one error."""
    before = sorted(work.iterdir())
    start = time.perf_counter()
    with _time_limit(10):
        code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2, err
    assert elapsed < seconds, f"refused after {elapsed:.2f} s"
    assert sorted(work.iterdir()) == before
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return err


_NEEDS_ALARM = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


@_NEEDS_ALARM
def test_estimate_with_a_scale_near_1_is_refused_at_once(tmp_path, capsys):
    # truncation_level(500, 1, 1, 1.0000001) is 14 625 685 levels
    data = tmp_path / "x.csv"
    np.savetxt(data, np.random.default_rng(5).uniform(0, 6.28, 500), fmt="%.17g")
    argv = ["estimate", str(data), "--m", "1", "--kappa", "1", "--B", "1.0000001"]
    err = _refused_in_time(argv + ["--out", str(tmp_path / "e")], tmp_path, capsys)
    assert "14625685 levels exceed the cap 4096" in err


@_NEEDS_ALARM
def test_frame_info_with_ten_million_levels_is_refused_at_once(tmp_path, capsys):
    argv = ["frame-info", "--B", "1.0000001", "--d", "1", "--J", "10000000"]
    assert "10000000 levels exceed the cap" in _refused_in_time(argv, tmp_path, capsys)


@_NEEDS_ALARM
def test_eval_grid_with_ten_million_levels_is_refused_at_once(tmp_path, capsys):
    stem = tmp_path / "wide"
    meta = {"B": 1.0000001, "d": 1, "J": 10**7, "m": [1], "n": 500, "kappa": 1.0, "rule": "hard"}
    Path(f"{stem}_meta.json").write_text(json.dumps(meta))
    Path(f"{stem}_coefficients.csv").write_text("j,k,raw,thresholded,tau\n0,0,0,0,0\n")
    argv = ["eval-grid", str(stem), "--grid", "17", "--out", str(tmp_path / "v.csv")]
    assert "10000000 levels exceed the cap" in _refused_in_time(argv, tmp_path, capsys)


@_NEEDS_ALARM
def test_bench_config_with_a_scale_near_1_is_refused_at_once(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_config(B=1.0000001, J="auto", n=500)))
    argv = ["bench", str(cfg), "--out", str(tmp_path / "o")]
    assert "levels exceed the cap 4096" in _refused_in_time(argv, tmp_path, capsys)


def _not_utf8(path, text):
    path.write_bytes(b"\xff\xfe" + text.encode("utf-8"))


@_NEEDS_ALARM
@pytest.mark.parametrize("which", ["coefficients", "meta"])
def test_eval_grid_names_an_input_that_is_not_utf8(kept_artifacts, tmp_path, capsys, which):
    stem = tmp_path / "enc"
    for part, name in (("coefficients", "_coefficients.csv"), ("meta", "_meta.json")):
        text = Path(f"{kept_artifacts}{name}").read_text()
        if part == which:
            _not_utf8(Path(f"{stem}{name}"), text)
        else:
            Path(f"{stem}{name}").write_text(text)
    bad = f"{stem}_coefficients.csv" if which == "coefficients" else f"{stem}_meta.json"
    argv = ["eval-grid", str(stem), "--grid", "17", "--out", str(tmp_path / "v.csv")]
    assert f"error: {bad}: not UTF-8 text (invalid start byte)" in (
        _refused_in_time(argv, tmp_path, capsys)
    )


@_NEEDS_ALARM
def test_bench_names_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _not_utf8(cfg, json.dumps(bench_config()))
    argv = ["bench", str(cfg), "--out", str(tmp_path / "o")]
    assert f"error: {cfg}: not UTF-8 text (invalid start byte)" in (
        _refused_in_time(argv, tmp_path, capsys)
    )


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


def _fresh_python(code, *args):
    """Run `code` in a new interpreter that imports torneed from this checkout."""
    env = dict(os.environ)
    src = str(Path(tn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_runs_without_scipy(tmp_path):
    proc = _fresh_python(_WITHOUT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().split("\n")[-1] == "['scipy']"  # only the None placeholder
    assert (tmp_path / "g.csv").read_text().count("\n") == 10


_COLD_IMPORT = """
import sys
import torneed.cli
from torneed.densities import density_from_name
density_from_name("wrapped_normal(1.0)").derivative((3,), [0.5, 2.0])
print(sorted(m for m in ("torneed.bench", "concurrent.futures", "numpy.polynomial") if m in sys.modules))
import torneed as tn
print(tn.bench.__name__, tn.run_experiment.__module__)
"""


def test_cli_import_leaves_bench_thread_pool_and_polynomials_unloaded():
    # estimate, eval-grid and frame-info need none of them, a wrapped-normal
    # derivative (the --density truth) included; bench loads on first use
    proc = _fresh_python(_COLD_IMPORT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "torneed.bench torneed.bench"]


def test_cli_import_builds_no_window_ramp():
    # the B-free ramp table is built on the first window's use, not at import,
    # which every estimate and eval-grid process pays
    proc = _fresh_python("import torneed.cli, torneed.frame as f; print(f._ramp.cache_info())")
    assert proc.returncode == 0, proc.stderr
    assert "currsize=0" in proc.stdout and "misses=0" in proc.stdout


def test_cli_import_builds_no_phase_table():
    # the exp(i x) kernel's 256-entry table is built by the first phase table, not at import
    proc = _fresh_python("import torneed.cli, torneed.frame as f; print(f._phase_table.cache_info())")
    assert proc.returncode == 0, proc.stderr
    assert "currsize=0" in proc.stdout and "misses=0" in proc.stdout
