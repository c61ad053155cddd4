"""The command line's input contract, on generated inputs: exit 0, 1 or 2, and nothing else.

Valid inputs of every subcommand are mutated: flipped or truncated bytes, a
prefix that is not UTF-8, NaN or inf tokens, missing or extra columns,
extreme --B, --J, --grid, --kappa and --m, and JSON values of the wrong type.
main runs on each in a fresh temporary directory. It must return 0, 1 or 2;
a nonzero exit prints exactly one `error:` line and leaves no new file; and
no exception escapes it. The flag values are either small or past a size
cap, so no example asks for a large run that is valid. A second test draws
(B, d, m, J) that the size check passes, with |m| often at the top it
allows: estimate then runs with finite coefficients or refuses the order by
name.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torneed.cli import main
from torneed.estimation import read_estimator_csv
from torneed.frame import box_half_width, size_violations

_EXTREME = {
    "--B": ["2", "1.5", "1.0000001", "1", "0.5", "-2", "1e200", "1e308", "inf", "nan"],
    "--J": ["0", "1", "3", "-1", "5000", "10000000", str(10**18)],
    "--grid": ["1", "17", "0", "-5", str(10**8 + 1), str(10**12)],
    "--kappa": ["0", "1", "1e-300", "1e308", "-1", "inf", "nan"],
    # the first axis's order; 400 overflows 7**|m| at J = 3 and 10**30 any B**((J-1)|m|)
    "--m": ["0", "1", "3", "400", "1000", str(10**30)],
}
_BAD_TOKENS = ["nan", "inf", "-inf", "1e999", "NaN", ""]
_WRONG_JSON = [None, True, "2", [1], {"x": 1}, 1.5, -1, 0, "inf", 1e308]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Valid inputs of every subcommand: samples in d = 1 and 2, estimator artifacts, a config."""
    root = tmp_path_factory.mktemp("originals")
    rng = np.random.default_rng(8)
    np.savetxt(root / "x1.csv", rng.uniform(0, 6.28, 60), fmt="%.17g")
    np.savetxt(root / "x2.csv", rng.uniform(0, 6.28, (60, 2)), fmt="%.17g", delimiter=",")
    argv = ["estimate", str(root / "x1.csv"), "--m", "1", "--kappa", "0.2", "--J", "3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(root / "art")]) == 0
    config = {
        "density": "wrapped_normal(1.0)", "d": 1, "B": 2, "m": [1], "n": 100,
        "replications": 2, "kappa0": [1.0], "rules": ["hard", "soft"], "J": 2, "grid": 17,
        "p": [2, "inf"], "seed": 3, "risk_method": "both", "literal_paper_kappa": False,
    }  # fmt: skip
    (root / "cfg.json").write_text(json.dumps(config))
    return root


def _mutate_bytes(data, raw):
    kind = data.draw(st.sampled_from(["flip", "truncate", "not-utf8"]))
    if kind == "not-utf8":
        return b"\xff\xfe" + raw
    at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :]


def _mutate_csv(data, text):
    """One row of a CSV gets a bad token, loses a field or gains one."""
    lines = text.split("\n")
    row = data.draw(st.integers(0, len(lines) - 2))
    fields = lines[row].split(",")
    kind = data.draw(st.sampled_from(["token", "missing", "extra"]))
    if kind == "token":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(_BAD_TOKENS))
    elif kind == "missing":
        fields.pop()
    else:
        fields.append("0.5")
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def _mutate_json(data, text):
    obj = json.loads(text)
    obj[data.draw(st.sampled_from(sorted(obj)))] = data.draw(st.sampled_from(_WRONG_JSON))
    return json.dumps(obj)


def _mutated_file(data, source, target, mutate_text):
    """Copy source to target, either byte-mutated or mutated as text (or unchanged)."""
    kind = data.draw(st.sampled_from(["bytes", "text", "none"]))
    raw = source.read_bytes()
    if kind == "bytes":
        raw = _mutate_bytes(data, raw)
    elif kind == "text":
        raw = mutate_text(data, raw.decode("utf-8")).encode("utf-8")
    target.write_bytes(raw)


def _flags(data, names):
    """Each named flag gets an extreme or ordinary value, or is left out."""
    out = []
    for name in names:
        value = data.draw(st.sampled_from([None] + _EXTREME[name]))
        if value is not None:
            out += [name, value]
    return out


def _frame_info(data, originals, work):
    d = data.draw(st.sampled_from(["1", "2"]))
    flags = _flags(data, ["--B", "--J"])
    flags += [] if "--B" in flags else ["--B", "2"]
    flags += [] if "--J" in flags else ["--J", "3"]
    return ["frame-info", "--d", d, "--m", "1", *flags]


def _estimate(data, originals, work):
    d = data.draw(st.sampled_from([1, 2]))
    _mutated_file(data, originals / f"x{d}.csv", work / "x.csv", _mutate_csv)
    flags = _flags(data, ["--B", "--J", "--grid", "--kappa"])
    flags += [] if "--kappa" in flags else ["--kappa", "1"]
    m = data.draw(st.sampled_from(_EXTREME["--m"])) + ("" if d == 1 else ",0")
    return ["estimate", str(work / "x.csv"), "--d", str(d), "--m", m, *flags, "--out", str(work / "e")]


def _eval_grid(data, originals, work):
    mutate = data.draw(st.sampled_from(["coefficients", "meta"]))
    for part, name, text_mutation in (
        ("coefficients", "art_coefficients.csv", _mutate_csv),
        ("meta", "art_meta.json", _mutate_json),
    ):
        if part == mutate:
            _mutated_file(data, originals / name, work / name, text_mutation)
        else:
            shutil.copy(originals / name, work / name)
    grid = data.draw(st.sampled_from(_EXTREME["--grid"]))
    return ["eval-grid", str(work / "art"), "--grid", grid, "--out", str(work / "v.csv")]


def _bench(data, originals, work):
    _mutated_file(data, originals / "cfg.json", work / "cfg.json", _mutate_json)
    threads = data.draw(st.sampled_from(["1", "2"]))
    return ["bench", str(work / "cfg.json"), "--threads", threads, "--out", str(work / "o")]


@pytest.mark.parametrize("command", [_frame_info, _estimate, _eval_grid, _bench])
@settings(max_examples=40, deadline=5000, derandomize=True, database=None)
@given(data=st.data())
def test_every_input_exits_0_1_or_2_and_a_refusal_writes_nothing(originals, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = command(data, originals, work)
        before = sorted(work.iterdir())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert code in (0, 1, 2), argv
        if code:
            assert len(errors) == 1, err.getvalue()
            assert sorted(work.iterdir()) == before, argv
        else:
            assert not errors, err.getvalue()


@st.composite
def _orders(draw):
    """(B, d, m, J) inside the size caps, |m| either small or within 2 of the largest allowed."""
    B = draw(st.sampled_from([1.5, 2.0, 3.0]))
    d = draw(st.sampled_from([1, 2]))
    J = draw(st.integers(0, 4 if d == 1 else 3))
    # size_violations refuses an order whose L**|m| or B**((J-1)|m|) overflows
    base = max(box_half_width(B, J - 1), B ** (J - 1))
    top = int(math.log(sys.float_info.max) / math.log(base)) if base > 1 else 2000
    order = draw(st.one_of(st.integers(0, 6), st.integers(max(top - 2, 0), top)))
    assume(not size_violations(B, d, J, order=order))
    first = draw(st.integers(0, order)) if d == 2 else order
    return B, d, (first, order - first)[:d], J


@settings(max_examples=40, deadline=5000, derandomize=True, database=None)
@given(case=_orders())
@example(case=(2.0, 1, (645,), 2))  # S_l times 3**645 overflowed before the 1/n
@example(case=(2.0, 2, (0, 646), 2))
def test_an_order_the_size_check_passes_runs_or_is_refused_by_name(originals, case):
    B, d, m, J = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "e"
        argv = [
            "estimate", str(originals / f"x{d}.csv"), "--d", str(d), "--B", str(B),
            "--m", ",".join(map(str, m)), "--kappa", "1", "--J", str(J), "--out", str(out),
        ]  # fmt: skip
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        if code == 0:
            raw, kept, taus = read_estimator_csv(f"{out}_coefficients.csv")
            assert all(np.isfinite(level).all() for level in raw + kept), case
            assert np.isfinite(taus).all(), case
        else:
            assert code == 2 and len(errors) == 1, (case, err.getvalue())
            assert f"|m|={sum(m)}" in errors[0], (case, errors[0])
            assert not any(Path(tmp).iterdir()), case
