"""The paper's tables, pinned: both configs and a d=2 product rerun against recorded outputs.

tests/golden/paper_table{1,3}.json were recorded once from `run_experiment`
on configs/paper_table{1,3}.json, with `golden_payload` below, at commit
8618514. tests/golden/product_d2.json pins a d=2 product run (two distinct
wrapped-normal factors, m = (1, 0), hard and soft, p in {1, 2, inf}); it was
recorded the same way at commit 271fe72, and its config is read from the
file's own `config` block. The files hold every risk row and risk aggregate
at full double precision (shortest round-trip repr, at most 17 significant
digits), every surviving count and the child seeds. Risks must match to
1e-12 relative, counts and seeds exactly. A change that moves a number
beyond that says so in CHANGES.md; the files are never re-recorded to make a
move disappear.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import torneed as tn

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

RISK_RTOL = 1e-12


def _p(value):
    return "inf" if math.isinf(value) else value


def golden_payload(report):
    """The numbers a paper table is made of, as plain JSON."""
    return {
        "config": report.config.to_dict(),
        "child_seeds": [str(s) for s in report.child_seeds],
        "risks": [
            [r.method, r.rule, r.kappa0, r.replication, _p(r.p), r.risk] for r in report.risk_rows
        ],
        "risk_aggregates": [
            [a["method"], a["rule"], a["kappa0"], a["p"], a["mean"], a["stderr"]]
            for a in report.risk_aggregates()
        ],
        "counts": [
            [c.rule, c.kappa0, c.replication, c.j, c.surviving, c.total] for c in report.count_rows
        ],
    }


@pytest.mark.parametrize("table", ["paper_table1", "paper_table3", "product_d2"])
def test_paper_tables_match_golden(table):
    expected = json.loads((GOLDEN / f"{table}.json").read_text(encoding="utf-8"))
    if table == "product_d2":
        config = tn.config_from_dict(expected["config"])
    else:
        config = tn.load_config(ROOT / "configs" / f"{table}.json")
    got = golden_payload(tn.run_experiment(config))

    assert got["config"] == expected["config"]
    assert got["child_seeds"] == expected["child_seeds"]
    assert got["counts"] == expected["counts"]
    for key, n_labels in (("risks", 5), ("risk_aggregates", 4)):
        rows, want = got[key], expected[key]
        assert [r[:n_labels] for r in rows] == [w[:n_labels] for w in want], key
        values = np.array([r[n_labels:] for r in rows], dtype=float)
        golden = np.array([w[n_labels:] for w in want], dtype=float)
        np.testing.assert_allclose(values, golden, rtol=RISK_RTOL, atol=0, err_msg=key)
