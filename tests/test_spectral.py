"""The spectral core against the direct-sum oracle, on random inputs.

Property tests draw samples, coefficient arrays and trigonometric polynomials
for d in {1, 2, 3} and B in {2, 1.7, 1.5}, and hold the box-spectrum/FFT
transforms of torneed.frame to the dense sums of direct_oracle at 1e-12
relative. Example generation is derandomized so a failure reproduces.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import direct_oracle as oracle
import torneed as tn
from torneed import frame as frame_mod
from torneed.frame import (
    PHASE_BLOCK_BYTES,
    _axis_phases,
    _family_values,
    _level_fft,
    block_rows,
    box_half_width,
    grid_values,
    sample_spectrum,
    spectrum_block_shape,
    spectrum_values,
)
from torneed.harmonics import TWO_PI, wrap_angles

REL_TOL = 1e-12

# highest level per (d, B), small enough for the dense oracle: B**(jmax+1)
# stays below 32 in d=1, 16 in d=2 and 5 in d=3
JMAX = {
    (1, 2.0): 4, (1, 1.7): 5, (1, 1.5): 7,
    (2, 2.0): 3, (2, 1.7): 4, (2, 1.5): 5,
    (3, 2.0): 1, (3, 1.7): 2, (3, 1.5): 2,
}  # fmt: skip
CASES = sorted(JMAX)
_FRAMES = {}

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def frame_for(case):
    if case not in _FRAMES:
        d, B = case
        _FRAMES[case] = tn.NeedletFrame(B, d, JMAX[case])
    return _FRAMES[case]


def assert_rel_close(got, want, floor=0.0):
    """Largest deviation over all arrays, relative to the largest reference magnitude (or floor)."""
    got = np.concatenate([np.ravel(v) for v in got])
    want = np.concatenate([np.ravel(v) for v in want])
    err = float(np.max(np.abs(got - want)))
    scale = max(float(np.max(np.abs(want))), floor)
    # an identically zero reference (e.g. m kills every frequency of a shell) needs exact zeros
    assert err <= REL_TOL * scale, f"deviation {err:.3e} against reference magnitude {scale:.3e}"


def assert_synthesis_matches(frame, coeffs, pts):
    # synthesize sees exactly pts, so a uniform grid takes its own path; the
    # oracle on a fixed probe grid brings the function's magnitude into the
    # scale, so points where it happens to be near zero do not tighten the
    # tolerance
    probe = np.max(np.abs(oracle.synthesize(frame, coeffs, tn.uniform_grid(6, frame.d))))
    got = tn.synthesize(frame, coeffs, pts)
    assert_rel_close([got], [oracle.synthesize(frame, coeffs, pts)], floor=probe)


def angles(n, d):
    """Unreduced angles, so wrapping is exercised too."""
    return arrays(np.float64, (n, d), elements=st.floats(-20.0, 20.0, allow_nan=False))


@st.composite
def sample_case(draw):
    case = draw(st.sampled_from(CASES))
    n = draw(st.integers(1, 40))
    X = draw(angles(n, case[0]))
    m = tuple(draw(st.lists(st.integers(0, 2), min_size=case[0], max_size=case[0])))
    jmax = draw(st.integers(0, JMAX[case]))
    return case, X, m, jmax


@st.composite
def coefficient_case(draw):
    """A frame and random coefficients; each level is dense, sparse or zero, not all zero."""
    case = draw(st.sampled_from(CASES))
    frame = frame_for(case)
    nlev = draw(st.integers(1, frame.jmax + 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = []
    for j in range(nlev):
        K = frame.cubature(j).K
        kind = draw(st.sampled_from(("dense", "sparse", "zero")))
        lv = rng.normal(size=K) if kind != "zero" else np.zeros(K)
        if kind == "sparse":
            lv[rng.random(K) < 0.9] = 0.0
        levels.append(lv)
    if not any(np.any(lv) for lv in levels):
        levels[-1] = rng.normal(size=levels[-1].size)
    return frame, tn.CoefficientArray((0,) * case[0], levels)


# ---------------------------------------------------------------- the two core functions


@pytest.mark.parametrize("d,L", [(1, 5), (2, 4), (3, 2), (4, 1)])
def test_sample_spectrum_and_adjoint_match_dense_box_sums(d, L):
    rng = np.random.default_rng(d)
    X = rng.uniform(-7.0, 7.0, (23, d))
    box = np.array(list(itertools.product(range(-L, L + 1), repeat=d)), dtype=float)
    dense = np.exp(1j * X @ box.T)  # (n, box size), rows of the box in C order
    S = sample_spectrum(X, L)
    assert S.shape == (2 * L + 1,) * d
    assert_rel_close([S.reshape(-1)], [dense.sum(axis=0)])
    A = rng.normal(size=S.shape) + 1j * rng.normal(size=S.shape)
    assert_rel_close([spectrum_values(A, X)], [dense @ A.reshape(-1)])


def table_rows(d, L):
    """Table rows per point of a d >= 2 sample_spectrum block: the half box's heights.

    The last and first axes over l >= 0 (L+1 rows each), each middle axis
    over -L..L (W = 2L+1 rows) and the running outer products (L+1) W^a.
    """
    W, half = 2 * L + 1, L + 1
    return 2 * half + (d - 2) * W + sum(half * W**a for a in range(1, d - 1))


def force_block_rows(patch, d, L):
    """Patch PHASE_BLOCK_BYTES so that sample_spectrum's blocks hold a few rows, and return them.

    5 rows of 2L+1 entries in d = 1; in d >= 2 one whole group of 8 rows of
    table rows, within half the budget.
    """
    if d == 1:
        patch.setattr(frame_mod, "PHASE_BLOCK_BYTES", 16 * 5 * (2 * L + 1))
        return 5
    patch.setattr(frame_mod, "PHASE_BLOCK_BYTES", 2 * 16 * 8 * table_rows(d, L))
    return 8


@pytest.mark.parametrize("d,L", [(1, 7), (1, 16), (2, 4), (3, 2)])
def test_row_blocking_does_not_change_the_core(monkeypatch, d, L):
    # a budget of a few rows forces twelve blocks, the last a ragged one of
    # two rows: d = 1 blocks of 5 rows, d >= 2 blocks of one 8-row group
    rows = 5 if d == 1 else 8
    n = 11 * rows + 2
    rng = np.random.default_rng(10 + d)
    X = rng.uniform(0.0, TWO_PI, (n, d))
    A = rng.normal(size=(2 * L + 1,) * d) + 1j * rng.normal(size=(2 * L + 1,) * d)
    whole_S, whole_f = sample_spectrum(X, L), spectrum_values(A, X)
    assert force_block_rows(monkeypatch, d, L) == rows
    assert spectrum_block_shape(n, d, L)[0] == rows
    assert_rel_close([sample_spectrum(X, L)], [whole_S])
    assert_rel_close([spectrum_values(A, X)], [whole_f])


@PROPERTY
@given(st.integers(2, 4), st.data())
def test_half_box_sample_spectrum_matches_the_dense_sum_over_several_blocks(d, data):
    # two to four full row blocks of one or two 8-row groups and a short
    # last one, padded to whole groups; the summed half box l_1 >= 0 takes
    # l_d < 0 from the conjugated last table, and every l_1 < 0 entry is the
    # exact conjugate of its mirror
    L = data.draw(st.integers(0, (4, 2, 1)[d - 2]))
    rows = 8 * data.draw(st.integers(1, 2))
    n = rows * data.draw(st.integers(2, 4)) + data.draw(st.integers(1, rows - 1))
    X = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-7.0, 7.0, (n, d))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frame_mod, "PHASE_BLOCK_BYTES", 2 * 16 * rows * table_rows(d, L))
        assert spectrum_block_shape(n, d, L)[0] == rows
        S = sample_spectrum(X, L)
    box = np.array(list(itertools.product(range(-L, L + 1), repeat=d)), dtype=float)
    assert_rel_close([S.reshape(-1)], [np.exp(1j * X @ box.T).sum(axis=0)])
    assert S[:L].tobytes() == np.conj(np.flip(S[L + 1 :])).tobytes()


@pytest.mark.parametrize("source", ["array", "stream"])
@pytest.mark.parametrize(
    "d,L,n,forced", [(2, 4, 21, False), (2, 3, 45, True), (3, 2, 13, False), (3, 1, 30, True)]
)
def test_a_padded_last_block_adds_exact_zeros(monkeypatch, source, d, L, n, forced):
    # a lone block of n rows, or the last of several 8-row blocks, fills its
    # tables for n rounded up to a whole 8-row group: the extra columns take
    # the angle 0 and add exact zeros, whatever the buffer held before, and
    # a stream is asked for the real rows only
    rows = force_block_rows(monkeypatch, d, L) if forced else -(-n // 8) * 8
    assert spectrum_block_shape(n, d, L)[0] == rows and n % 8
    X = np.random.default_rng(n).uniform(-7.0, 7.0, (n, d))
    asked = []

    def next_rows(b):
        start = sum(asked)
        asked.append(b)
        return X[start : start + b].copy()

    points = X if source == "array" else frame_mod.RowStream((n, d), next_rows)
    garbage = np.full(frame_mod.spectrum_buffer(n, d, L).size, np.nan + 0j)
    S = sample_spectrum(points, L, buffer=garbage)
    box = np.array(list(itertools.product(range(-L, L + 1), repeat=d)), dtype=float)
    assert_rel_close([S.reshape(-1)], [np.exp(1j * X @ box.T).sum(axis=0)])
    assert S.tobytes() == sample_spectrum(X, L).tobytes()
    assert asked == ([] if source == "array" else [rows] * (n // rows) + [n % rows])


def test_phase_blocks_stay_under_the_byte_budget():
    # d=3, J=3 at B=2 (box L=15) and a 10^5-row sample: only shapes are computed
    n = 10**5
    L = box_half_width(2.0, 3)
    assert L == 15
    for d in (1, 2, 3):
        rows, width = spectrum_block_shape(n, d, L)
        assert 1 <= rows < n
        assert 16 * rows * width <= PHASE_BLOCK_BYTES
        if d >= 2:  # the whole table buffer of a block fits half, in whole 8-row groups
            assert width == table_rows(d, L)
            assert rows % 8 == 0
            assert frame_mod.spectrum_buffer(n, d, L).nbytes <= PHASE_BLOCK_BYTES // 2
    nf = tn.frequency_shell(3, 2.0, 3).shape[0]  # block_rows caps any width, a level-3 shell's too
    rows = block_rows(n, nf)
    assert 16 * rows * nf <= PHASE_BLOCK_BYTES
    # a fixed 32768-row chunk of that shell would need gigabytes
    assert 16 * 32768 * nf > 2**30


def test_block_rows_bounds():
    assert block_rows(3, 1) == 3  # never more rows than there are
    assert block_rows(10**9, 10**9) == 1  # never fewer than one
    assert block_rows(10**9, 4) == PHASE_BLOCK_BYTES // 64


@pytest.mark.parametrize(
    "d,L,n,heights",
    [(1, 15, 100_000, 4 + 4), (2, 15, 20_000, 16 + 16), (3, 3, 20_000, 4 + 4 + 7 + 28)],
)
def test_sample_spectrum_fills_one_table_buffer_for_every_block(d, L, n, heights):
    # the tables of every row block are views of one buffer, sized for the
    # widest block: a call over 3 or more blocks peaks near one block's table
    # bytes (digit tables q + r = 4 + 4 rows in d = 1; the last and first
    # axes' L + 1 rows, each middle axis's 2L + 1 and their running outer
    # product otherwise), where a fresh table per block peaked at two, the
    # last block's still alive
    X = np.random.default_rng(d).uniform(0.0, TWO_PI, (n, d))
    rows, _ = spectrum_block_shape(n, d, L)
    assert math.ceil(n / rows) >= 3
    table_bytes = 16 * heights * rows
    tracemalloc.start()
    try:
        sample_spectrum(X, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_bytes <= peak <= 1.1 * table_bytes


@pytest.mark.parametrize("d,L,heights", [(2, 15, 16 + 16), (3, 7, 8 + 8 + 15 + 120)])
def test_sample_spectrum_buffer_holds_every_table_of_a_block(d, L, heights):
    # the buffer is the sum of the table heights times the block's rows
    # times 16 bytes, and the rows, whole 8-row groups, are sized so that it
    # fits PHASE_BLOCK_BYTES // 2 (2.00 MiB over blocks of 4096 and 3904 rows
    # at product_d2's L = 15 and n = 8000; 1.99 MiB over ten blocks at d = 3,
    # L = 7); the call peaks at it, within 256 KiB for the sums, the GEMM
    # products and the box
    X = np.random.default_rng(d).uniform(0.0, TWO_PI, (8000, d))
    rows, width = spectrum_block_shape(8000, d, L)
    assert width == heights == table_rows(d, L)
    assert rows % 8 == 0
    buffer = 16 * heights * rows
    assert buffer <= PHASE_BLOCK_BYTES // 2
    tracemalloc.start()
    try:
        sample_spectrum(X, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buffer <= peak <= buffer + (1 << 18)
    assert peak <= PHASE_BLOCK_BYTES // 2 + (1 << 18)


@pytest.mark.parametrize("d,L,n", [(1, 15, 100_000), (2, 15, 20_000), (3, 3, 20_000), (1, 0, 3)])
def test_sample_spectrum_in_a_given_buffer_gives_its_bits(d, L, n):
    # a caller-owned buffer, garbage from an earlier call, or a larger one,
    # gives the bytes of the call that allocates its own; a short one is refused
    X = np.random.default_rng(d).uniform(0.0, TWO_PI, (n, d))
    want = sample_spectrum(X, L)
    buffer = frame_mod.spectrum_buffer(n, d, L)
    sample_spectrum(X[::-1].copy(), L, buffer=buffer)
    assert sample_spectrum(X, L, buffer=buffer).tobytes() == want.tobytes()
    wider = np.full(buffer.size + 5, np.nan + 0j)
    assert sample_spectrum(X, L, buffer=wider).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="short"):
        sample_spectrum(X, L, buffer=buffer[:-1])


@pytest.mark.parametrize("d,L,n", [(1, 15, 100_000), (2, 15, 20_000), (3, 3, 20_000), (1, 0, 3)])
def test_sample_spectrum_of_a_row_stream_gives_the_bits_of_the_array(d, L, n):
    # a RowStream hands sample_spectrum the array's row blocks one call at a
    # time, each overwriting the last in one workspace of one block: the
    # same blocks in the same order give the bytes of the whole array
    X = np.random.default_rng(d).uniform(-7.0, 7.0, (n, d))
    rows, _ = spectrum_block_shape(n, d, L)
    work, asked = np.full((rows, d), np.nan), []

    def next_rows(b):
        start = sum(asked)
        asked.append(b)
        work[:b] = X[start : start + b]
        return work[:b]

    got = sample_spectrum(frame_mod.RowStream((n, d), next_rows), L)
    assert got.tobytes() == sample_spectrum(X, L).tobytes()
    assert asked == [rows] * (n // rows) + ([n % rows] if n % rows else [])


# (d, L, n): d = 1 to 4, n = 0 and 4 (mod 8), one block and several. While d >= 2
# blocks could hold 4 (mod 8) rows, the d >= 3 cases and d = 2 at L = 31 and 63 gave
# other bits at one and at two OpenBLAS 0.3.31 threads (x86-64)
_BLAS_CASES = [
    (1, 15, 8000), (1, 15, 100_004), (1, 31, 5004), (1, 63, 30_004),
    (2, 15, 8000), (2, 15, 8004), (2, 31, 20_004), (2, 7, 1236), (2, 63, 6004),
    (3, 15, 3000), (3, 15, 8000), (3, 7, 1236), (3, 7, 8004), (3, 31, 2004), (3, 7, 700),
    (4, 3, 5000), (4, 3, 1004), (4, 5, 3004), (4, 3, 404),
]  # fmt: skip

_BLAS_BOXES = """
import hashlib, sys
import numpy as np
from torneed.frame import sample_spectrum, spectrum_block_shape
for case in sys.argv[1:]:
    d, L, n = map(int, case.split(","))
    X = np.random.default_rng(n + d).uniform(0.0, 2 * np.pi, (n, d))
    rows = spectrum_block_shape(n, d, L)[0]
    print(case, -(-n // rows), hashlib.sha256(sample_spectrum(X, L).tobytes()).hexdigest())
"""


def _blas_name():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def test_sample_spectrum_bits_do_not_depend_on_the_blas_thread_count():
    # the box bytes of each case, in a fresh interpreter at one and at two
    # OpenBLAS threads (the variable is read when numpy loads)
    if "openblas" not in _blas_name().lower():
        pytest.skip(f"numpy's BLAS is {_blas_name()}, which OPENBLAS_NUM_THREADS does not set")
    src = str(Path(tn.__file__).resolve().parents[1])
    cases = [f"{d},{L},{n}" for d, L, n in _BLAS_CASES]
    boxes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_BOXES, *cases],
            capture_output=True, text=True, env=env, timeout=120,
        )  # fmt: skip
        assert proc.returncode == 0, proc.stderr
        boxes.append(proc.stdout.splitlines())
    assert len(boxes[0]) == len(cases)
    # n = 0 and 4 (mod 8), one block and several, in every d
    for d in range(1, 5):
        assert {n % 8 for e, _, n in _BLAS_CASES if e == d} == {0, 4}
        assert {int(line.split()[1]) > 1 for line in boxes[0] if line[0] == str(d)} == {False, True}
    moved = [one.split()[0] for one, two in zip(*boxes) if one != two]
    assert not moved, f"(d, L, n) whose box bytes move with the BLAS thread count: {moved}"


def test_sample_spectrum_takes_unreduced_angles_as_given():
    # angles outside [0, 2pi) are neither refused nor wrapped: every phase
    # is 2pi-periodic, and the spectrum is the dense sum over those points
    x = np.array([-0.5, TWO_PI + 0.25])
    L = 2
    dense = np.exp(1j * np.outer(np.arange(-L, L + 1), x)).sum(axis=1)
    np.testing.assert_allclose(sample_spectrum(x[:, None], L), dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("source", ["array", "stream"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("row", [2, 7, 16])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_spectrum_refuses_a_nonfinite_block(monkeypatch, bad, row, d, source):
    # four row blocks, the last of two rows: 5, 5, 5 and 2 in d = 1, 8, 8,
    # 8 and 2 in d >= 2. One coordinate of a row in the first, a middle or
    # the last block (row 2, 7 or 16 of the 5-row layout, the same place in
    # its block in the 8-row one) is NaN or +-inf. An array and a RowStream
    # are refused by the same check, and a stream is never asked for the
    # block after the bad one. An empty sample, and a stream whose block
    # holding that row comes one row short, are refused too
    L = 2
    rows = force_block_rows(monkeypatch, d, L)
    n = 3 * rows + 2
    assert spectrum_block_shape(n, d, L)[0] == rows
    at = row // 5 * rows + row % 5
    X = np.random.default_rng(d).uniform(-7.0, 7.0, (n, d))
    X[at, at % d] = bad
    want, asked = [rows, rows, rows, 2][: row // 5 + 1], []

    def stream(cut):
        def next_rows(b):
            start = sum(asked)
            asked.append(b)
            return X[start : start + b - cut * (start <= at < start + b)]

        asked.clear()
        return frame_mod.RowStream((n, d), next_rows)

    if source == "array":
        points, empty = X, np.empty((0, d))
    else:
        points, empty = stream(0), frame_mod.RowStream((0, d), asked.append)
    with pytest.raises(ValueError, match="samples contain non-finite values"):
        sample_spectrum(points, L)
    assert asked == (want if source == "stream" else [])
    asked.clear()
    with pytest.raises(ValueError, match="sample set is empty"):
        sample_spectrum(empty, L)
    assert asked == []
    if source == "stream":
        b = want[-1]
        with pytest.raises(ValueError, match=rf"shape \({b - 1}, {d}\), not \({b}, {d}\)"):
            sample_spectrum(stream(1), L)
        assert asked == want


@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_block_column_range_decides_the_far_path(monkeypatch, d):
    # the min and max of each block column, taken once for the finite check,
    # are the range _exp_i tests for angles beyond 2^20: a far angle in any
    # column of any block, the padded last block included, gets the bytes of
    # a kernel that takes the range itself
    L, n = 2, 45
    rows = force_block_rows(monkeypatch, d, L)
    X = np.random.default_rng(40 + d).uniform(-7.0, 7.0, (n, d))
    for i, row in enumerate(range(1, n, rows)):
        X[row, i % d] = (-1) ** i * (2.0**21 + i)
    got = sample_spectrum(X, L)
    kernel = frame_mod._exp_i
    monkeypatch.setattr(frame_mod, "_exp_i", lambda x, out, spare, span=None: kernel(x, out, spare))
    assert got.tobytes() == sample_spectrum(X, L).tobytes()


@st.composite
def folded_box_case(draw):
    """1 to 3 random complex boxes (not Hermitian) on a trailing axis; a grid size up to 2L+3."""
    d = draw(st.integers(1, 3))
    L = draw(st.integers(0, (7, 5, 3)[d - 1]))
    npts = draw(st.integers(1, 2 * L + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2 * L + 1,) * d + (draw(st.integers(1, 3)),)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape), npts


@PROPERTY
@given(folded_box_case())
def test_grid_values_match_spectrum_values_on_the_grid(case):
    box, npts = case
    d, L, R = box.ndim - 1, (box.shape[0] - 1) // 2, box.shape[-1]
    grid = tn.uniform_grid(npts, d)
    # both evaluators read _axis_phases, so the reference is the dense np.exp
    # sum of the oracle, one column per box of the family; spectrum_values,
    # which synthesize takes off the grid, must agree with it too, and with
    # each box alone
    freqs = np.array(list(itertools.product(range(-L, L + 1), repeat=d)), dtype=np.int64)
    want = (oracle.phases(grid, freqs, +1.0) @ box.reshape(-1, R)).T
    # below 2L+1 points frequencies alias into one bin and the values can
    # cancel; the largest box's l2 norm (the values' rms when nothing
    # aliases) then keeps the scale
    floor = float(np.max(np.linalg.norm(box.reshape(-1, R), axis=0)))
    assert grid_values(box, npts).shape == spectrum_values(box, grid).shape == (R, npts**d)
    assert_rel_close([grid_values(box, npts)], [want], floor=floor)
    assert_rel_close([spectrum_values(box, grid)], [want], floor=floor)
    assert_rel_close([spectrum_values(box[..., i], grid) for i in range(R)], [want], floor=floor)


def _spy_on_paths(monkeypatch):
    """List that records which evaluator synthesize calls: the grid's tensor product or arbitrary points."""
    taken = []
    for name in ("grid_values", "spectrum_values"):
        original = getattr(frame_mod, name)
        monkeypatch.setattr(
            frame_mod, name, lambda *args, _n=name, _f=original: taken.append(_n) or _f(*args)
        )
    return taken


def _layouts(npts, d):
    """Point sets that hold uniform_grid's coordinates, or nearly, but not its exact layout."""
    grid = tn.uniform_grid(npts, d)
    nudged = grid.copy()
    nudged[-1, -1] = np.nextafter(nudged[-1, -1], np.inf)
    shuffled = grid[np.random.default_rng(npts).permutation(grid.shape[0])]
    axis = np.linspace(0.0, TWO_PI, npts, endpoint=False)
    shifted = np.linspace(-np.pi, np.pi, npts, endpoint=False)
    cases = {
        "one ulp": nudged,
        "shuffled rows": shuffled,
        "shifted by -pi": np.stack(np.meshgrid(*[shifted] * d, indexing="ij"), -1).reshape(-1, d),
        "unreduced": grid + TWO_PI,
    }
    if d > 1:
        cases["linspace, xy order"] = np.stack(np.meshgrid(*[axis] * d), -1).reshape(-1, d)
    return cases


@pytest.mark.parametrize("case", [(1, 2.0), (2, 2.0), (3, 1.5)])
def test_only_the_exact_uniform_grid_takes_the_grid_path(monkeypatch, case):
    frame = frame_for(case)
    rng = np.random.default_rng(case[0])
    coeffs = tn.CoefficientArray(
        (0,) * frame.d, [rng.normal(size=frame.cubature(j).K) for j in range(frame.jmax + 1)]
    )
    npts = 9
    grid = tn.uniform_grid(npts, frame.d)
    taken = _spy_on_paths(monkeypatch)
    assert_synthesis_matches(frame, coeffs, grid)
    assert taken == ["grid_values"]
    # np.linspace(endpoint=False) in meshgrid "ij" order forms k * (2pi/G)
    # on numpy 2.x, the very coordinates of uniform_grid; the rule is
    # coordinate equality, whatever built the array
    axis = np.linspace(0.0, TWO_PI, npts, endpoint=False)
    same = np.stack(np.meshgrid(*[axis] * frame.d, indexing="ij"), -1).reshape(-1, frame.d)
    taken.clear()
    assert_synthesis_matches(frame, coeffs, same)
    assert taken == ["grid_values" if np.array_equal(same, grid) else "spectrum_values"]
    for label, pts in _layouts(npts, frame.d).items():
        taken.clear()
        assert_synthesis_matches(frame, coeffs, pts)
        assert taken == ["spectrum_values"], label


def test_grid_path_keeps_the_imaginary_residue_guard(monkeypatch):
    frame = frame_for((1, 2.0))
    coeffs = tn.CoefficientArray((0,), [np.ones(frame.cubature(j).K) for j in range(3)])
    original = frame_mod.grid_values
    monkeypatch.setattr(frame_mod, "grid_values", lambda box, npts: original(box, npts) + 1e-6j)
    with pytest.raises(ValueError, match="imaginary residue"):
        tn.synthesize(frame, coeffs, tn.uniform_grid(64, 1))
    with pytest.raises(ValueError, match="imaginary residue"):
        tn.needlet_lp_norm(frame, 2)


def test_point_path_keeps_the_imaginary_residue_guard(monkeypatch):
    frame = frame_for((1, 2.0))
    coeffs = tn.CoefficientArray((0,), [np.ones(frame.cubature(j).K) for j in range(3)])
    original = frame_mod.spectrum_values
    monkeypatch.setattr(frame_mod, "spectrum_values", lambda box, pts: original(box, pts) + 1e-6j)
    pts = np.linspace(0.1, 6.0, 7)
    with pytest.raises(ValueError, match="imaginary residue"):
        tn.synthesize(frame, coeffs, pts)
    with pytest.raises(ValueError, match="imaginary residue"):
        tn.needlet_eval(frame, 2, 3, pts)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_fft_is_the_fft_of_each_cube(d):
    # one transform over a stack of level cubes gives each cube's own bits,
    # for the complex shells of analysis and the real pixels of synthesis
    N = (9, 7, 5)[d - 1]
    rng = np.random.default_rng(d)
    shape = (4,) + (N,) * d
    cubes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    forward, inverse = _level_fft(cubes, d), _level_fft(cubes, d, inverse=True)
    for cube, fwd, inv in zip(cubes, forward, inverse):
        assert fwd.tobytes() == np.fft.fftn(cube).tobytes()
        assert inv.tobytes() == (N**d * np.fft.ifftn(cube)).tobytes()
    pixels = cubes.real.copy()
    for cube, fwd in zip(pixels, _level_fft(pixels, d)):
        assert fwd.tobytes() == np.fft.fftn(cube).tobytes()


@pytest.mark.parametrize("d, L, npts", [(1, 15, 257), (1, 3, 9), (1, 7, 2), (2, 7, 33), (3, 2, 7)])
def test_a_row_alone_equals_the_row_in_any_family(d, L, npts):
    # a replication's values on the grid, where run_experiment scores it, may
    # not depend on how many rows it is stacked with: a lone row must give
    # the bits it gives inside a family of 2 to 5
    rng = np.random.default_rng(10 * d + L)
    raw = rng.normal(size=(2 * L + 1,) * d + (5,)) + 1j * rng.normal(size=(2 * L + 1,) * d + (5,))
    box = raw + np.conj(np.flip(raw, axis=tuple(range(d))))  # Hermitian: real values
    points = tn.uniform_grid(npts, d)
    alone = [_family_values(box[..., i : i + 1].copy(), points, npts) for i in range(5)]
    for R in range(2, 6):
        family = _family_values(box[..., :R], points, npts)
        for i in range(R):
            # (R, box) rows against (1, box), box = (2L+1)^d, on npts^d points
            assert family[i].tobytes() == alone[i][0].tobytes(), (R, i, 2 * L + 1, npts, d)


@pytest.mark.parametrize(
    "d, L, pad, npts",
    [(1, 3, 1, 9), (1, 3, 4, 23), (1, 7, 8, 65), (1, 15, 13, 57), (2, 3, 1, 9), (2, 3, 4, 33),
     (2, 7, 2, 19), (3, 1, 1, 5), (3, 2, 3, 13), (3, 3, 2, 16)],
)  # fmt: skip
def test_a_zero_padded_box_keeps_the_bits_of_its_own_band(d, L, pad, npts):
    # synthesize evaluates a stack on the band of its top live level, so a
    # row whose own top level is lower is evaluated on its box zero-padded:
    # a family of 2 or more rows gives the bits of the narrower box, and so
    # does a lone row through _family_values (beside a copy of itself in d = 1)
    rng = np.random.default_rng(100 * d + 10 * L + pad)
    raw = rng.normal(size=(2 * L + 1,) * d + (5,)) + 1j * rng.normal(size=(2 * L + 1,) * d + (5,))
    box = raw + np.conj(np.flip(raw, axis=tuple(range(d))))  # Hermitian: real values
    padded = np.pad(box, [(pad, pad)] * d + [(0, 0)])
    points = tn.uniform_grid(npts, d)
    for R in (2, 3, 5):
        # (R, (2L+1)^d) against (R, (2(L+pad)+1)^d) on npts^d points
        wide, own = grid_values(padded[..., :R], npts), grid_values(box[..., :R], npts)
        assert wide.tobytes() == own.tobytes(), (R, d, L, pad, npts)
    for R in (1, 2):
        wide, own = (_family_values(b[..., :R], points, npts) for b in (padded, box))
        assert wide.tobytes() == own.tobytes(), (R, d, L, pad, npts)


@pytest.mark.parametrize("path", ["grid_values", "spectrum_values"])
def test_family_synthesis_keeps_the_imaginary_residue_guard(monkeypatch, path):
    # a residue injected into one row of a 3-row family raises on either path
    frame = frame_for((1, 2.0))
    coeffs = tn.CoefficientArray((0,), [np.ones((3, frame.cubature(j).K)) for j in range(3)])
    original = getattr(frame_mod, path)

    def leaky(box, where):
        values = original(box, where)
        values[-1, 0] += 1e-6j
        return values

    monkeypatch.setattr(frame_mod, path, leaky)
    pts = tn.uniform_grid(64, 1) if path == "grid_values" else np.linspace(0.1, 6.0, 7)
    with pytest.raises(ValueError, match="imaginary residue 1.000e-06 exceeds"):
        tn.synthesize(frame, coeffs, pts)


# ---------------------------------------------------------------- per-axis phase tables


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("L", [0, 1, 2, 15, 255, 16383])
def test_axis_phases_match_long_double_reference(L, full):
    x = np.random.default_rng(L).uniform(0.0, TWO_PI, 64)
    got = _axis_phases(x, L, full=full)
    freqs = np.arange(-L if full else 0, L + 1)
    assert got.shape == (freqs.size, x.size)
    angles = np.multiply.outer(freqs.astype(np.longdouble), x.astype(np.longdouble))
    err = np.maximum(np.abs(got.real - np.cos(angles)), np.abs(got.imag - np.sin(angles)))
    # the doubling products lose accuracy about linearly in |l|, never faster
    assert float(np.max(err)) <= (L + 1) * 1e-15
    assert np.all(got[freqs == 0] == 1.0)


@pytest.mark.parametrize("full", [True, False])
def test_axis_phases_of_no_points(full):
    assert _axis_phases(np.empty(0), 4, full=full).shape == (9 if full else 5, 0)


@pytest.mark.parametrize("samples", ["uniform", "equal"])
@pytest.mark.parametrize("L", [0, 1, 2, 3, 15, 16, 255])
def test_d1_sample_spectrum_matches_long_double_reference(L, samples):
    # the digit tables' q * r covers 0..L with room to spare (20 > 17 at L = 16);
    # 10^5 equal samples are the worst case, every product and sum adding up
    if samples == "uniform":
        x = np.random.default_rng(100 + L).uniform(0.0, TWO_PI, 2000)
    else:
        x = np.full(10**5, 3.1)
    S = sample_spectrum(x[:, None], L)
    freqs = np.arange(-L, L + 1)
    assert S.shape == (2 * L + 1,)
    ls = freqs.astype(np.longdouble)
    if samples == "uniform":
        angles = np.multiply.outer(ls, x.astype(np.longdouble))
        ref_re, ref_im = np.cos(angles).sum(axis=1), np.sin(angles).sum(axis=1)
    else:
        angles = ls * np.longdouble(3.1)
        ref_re, ref_im = x.size * np.cos(angles), x.size * np.sin(angles)
    err = np.maximum(np.abs(S.real - ref_re), np.abs(S.imag - ref_im)).astype(float)
    assert np.all(err <= x.size * (np.abs(freqs) + 1) * 4e-15)
    assert S[L] == x.size


# ---------------------------------------------------------------- the exp(i x) kernel

# pi to more digits than a long double holds
_PI_LD = np.longdouble("3.14159265358979323846264338327950288419716939937510")
_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_extended = pytest.mark.skipif(not _EXTENDED, reason="long double is no wider than double here")


def _exp_i(x, out=None):
    """frame._exp_i of x with fresh scratch rows, into out (a new complex array when None)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex) if out is None else out
    frame_mod._exp_i(x, out, [np.full(x.shape, np.nan) for _ in range(4)])
    return out


def _kernel_points():
    """10^6 uniform angles in [-1e5, 1e5], then the edge cases of the reduction."""
    steps = np.arange(-600, 601) * (TWO_PI / 256)
    edges = [0.0, -0.0, 5e-324, -5e-324, math.pi / 2, -math.pi / 2, math.pi, -math.pi]
    edges += [np.nextafter(TWO_PI, 0.0), TWO_PI, 2.0**20, -(2.0**20)]
    return np.concatenate(
        [
            np.random.default_rng(30).uniform(-1e5, 1e5, 10**6),
            edges,
            steps,
            np.nextafter(steps, np.inf),
            np.nextafter(steps, -np.inf),
        ]
    )


@needs_extended
def test_exp_i_is_within_2e_16_of_the_true_value():
    x = _kernel_points()
    got = _axis_phases(x, 1, full=False)[1]
    xl = x.astype(np.longdouble)
    err = np.maximum(np.abs(got.real - np.cos(xl)), np.abs(got.imag - np.sin(xl)))
    assert float(err.max()) <= 2e-16
    # libm's own error is about 5.6e-17; the table's rounding and the last add's dominate
    assert float(err.mean()) <= 6e-17
    assert _exp_i([0.0])[0] == 1.0 + 0.0j
    assert _exp_i([5e-324])[0] == 1.0 + 5e-324j


@needs_extended
def test_phase_table_is_within_an_ulp_of_the_true_value():
    cos, sin = frame_mod._phase_table()
    angles = 2 * _PI_LD * np.arange(256).astype(np.longdouble) / 256
    assert float(np.max(np.abs(cos - np.cos(angles)))) <= 2.0**-53
    assert float(np.max(np.abs(sin - np.sin(angles)))) <= 2.0**-53
    assert (cos[0], sin[0]) == (1.0, 0.0)
    assert not cos.flags.writeable and not sin.flags.writeable


def test_exp_i_bits_depend_on_the_point_alone():
    # SIMD loops and their scalar tails, any offset, strided input and a
    # strided out: every entry is the kernel's value of that entry alone
    x = np.concatenate([_kernel_points()[-4000:], np.random.default_rng(31).uniform(0, TWO_PI, 997)])
    block = _exp_i(x)
    assert _exp_i(x[3:]).tobytes() == block[3:].tobytes()
    assert _exp_i(x[1::2]).tobytes() == block[1::2].tobytes()
    column = np.random.default_rng(32).uniform(size=(x.size, 3))
    column[:, 1] = x
    into = np.full((x.size, 3), np.nan + 0j)
    _exp_i(column[:, 1], out=into[:, 2])
    assert into[:, 2].tobytes() == block.tobytes()
    for i in range(0, x.size, 331):
        assert _exp_i(x[i : i + 1]).tobytes() == block[i : i + 1].tobytes()


def test_far_and_non_finite_points_take_libm_per_entry():
    # beyond 2^20, NaN and inf get np.cos/np.sin's bytes; the entries beside
    # them keep the kernel's, and no cast or invalid-value warning is raised
    far = np.array([2.0**20 + 1.0, -3e7, 1e300, -(2.0**1000), math.nan])
    near = np.array([1.0, 2.0**20, -(2.0**20), 0.0, 5.5])
    x = np.stack([far, near], axis=1).reshape(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _axis_phases(x, 1, full=False)[1]
    assert got[::2].real.tobytes() == np.cos(far).tobytes()
    assert got[::2].imag.tobytes() == np.sin(far).tobytes()
    assert got[1::2].tobytes() == _exp_i(near).tobytes()
    # np.cos(inf) flags an invalid operation on its own, as it always has
    x = np.array([math.inf, 2.0, -math.inf])
    with np.errstate(invalid="ignore"):
        got = _axis_phases(x, 1, full=False)[1]
        want = np.cos(x[::2]), np.sin(x[::2])
    assert got[::2].real.tobytes() == want[0].tobytes()
    assert got[::2].imag.tobytes() == want[1].tobytes()
    assert got[1] == _exp_i([2.0])[0]


@pytest.mark.parametrize(
    "source,d,L",
    [pytest.param("three turns out", d, L, marks=needs_extended)
     for d, L in [(1, 15), (1, 255), (2, 7)]]
    + [
        ("wrapped_normal(1.0)", 1, 15),
        ("wrapped_normal(6.9)", 1, 255),
        ("product(uniform,wrapped_normal(6.9))", 2, 7),
        ("product(wrapped_normal(6.9),uniform,wrapped_normal(2.5))", 3, 4),
    ],
)  # fmt: skip
def test_sample_spectrum_of_unreduced_points_keeps_its_bound(source, d, L):
    # three turns out, every angle takes the table's reduction; the spectrum
    # stays within the d = 1 long-double bound, n (|l| + 1) 4e-15 per entry.
    # A density's draw, unwrapped as a Monte Carlo chunk reduces it (a
    # product's in the transpose of its (d, n) rows), stays within that bound
    # of the spectrum of its wrap; at sigma = 6.9 about a third of the normal
    # draws leave (-2pi, 2pi)
    axes = np.meshgrid(*[np.arange(-L, L + 1)] * d, indexing="ij")
    freqs = np.stack([a.reshape(-1) for a in axes], axis=1)
    if source == "three turns out":
        X = np.random.default_rng(33).uniform(0.0, TWO_PI, (3000, d)) + 3 * TWO_PI
        angles = freqs.astype(np.longdouble) @ X.T.astype(np.longdouble)
        ref = np.cos(angles).sum(axis=1), np.sin(angles).sum(axis=1)
    else:
        X = tn.density_from_name(source, d).draw(np.random.default_rng(33), np.empty(3000 * d))
        assert X.shape == (3000, d) and X.flags.c_contiguous == (d == 1)
        if "6.9" in source:
            assert np.mean(np.abs(X) >= TWO_PI) > 0.3 / d
        wrapped = sample_spectrum(wrap_angles(X), L).reshape(-1)
        ref = wrapped.real, wrapped.imag
    S = sample_spectrum(X, L)
    err = np.maximum(np.abs(S.real.reshape(-1) - ref[0]), np.abs(S.imag.reshape(-1) - ref[1]))
    bound = X.shape[0] * (np.abs(freqs).sum(axis=1) + 1) * 4e-15
    assert np.all(err.astype(float) <= bound)


@pytest.mark.parametrize("case", [c for c in CASES if c[1] in (2.0, 1.5)])
def test_needlet_eval_and_matrix_match_oracle(case):
    # needlet_eval evaluates the centred needlet at theta - xi_k; its columns
    # are held to the oracle's dense (points x pixels) matrix, each point set
    # in a call of its own
    frame = frame_for(case)
    d, j = case[0], frame.jmax
    m = (1,) + (0,) * (d - 1)
    grid = tn.uniform_grid(4, d)
    point_sets = [
        np.random.default_rng(d).uniform(-9.0, 9.0, (40, d)),
        grid,  # a bare uniform grid, as synthesize's grid path sees it
        grid + np.where(np.arange(d) % 2, -TWO_PI, 2 * TWO_PI),  # unreduced by +4pi / -2pi
    ]
    want = [oracle.needlet_matrix(frame, j, pts, m).real for pts in point_sets]
    K = frame.cubature(j).K
    for k in (0, K // 3, K - 1):
        got = [tn.needlet_eval(frame, j, k, pts, m) for pts in point_sets]
        assert_rel_close(got, [w[:, k] for w in want])


# ---------------------------------------------------------------- properties against the oracle


@PROPERTY
@given(sample_case())
def test_empirical_coefficients_match_oracle(case_data):
    case, X, m, jmax = case_data
    frame = frame_for(case)
    got = tn.empirical_coefficients(frame, X, jmax=jmax, m=m)
    want = oracle.empirical_coefficients(frame, X, jmax, m=m)
    assert got.njlevels == jmax + 1
    assert_rel_close(got.levels, want.levels)


@PROPERTY
@given(coefficient_case(), st.integers(1, 12))
def test_synthesize_on_uniform_grid_matches_oracle(coeff_data, per_dim):
    frame, coeffs = coeff_data
    assert_synthesis_matches(frame, coeffs, tn.uniform_grid(per_dim, frame.d))


@PROPERTY
@given(coefficient_case(), st.data())
def test_synthesize_off_grid_matches_oracle(coeff_data, data):
    frame, coeffs = coeff_data
    pts = data.draw(angles(data.draw(st.integers(1, 30)), frame.d))
    assert_synthesis_matches(frame, coeffs, pts)


@st.composite
def trig_polynomial(draw):
    """f = sum_l c_l cos(l.x) + s_l sin(l.x) over l with 0 < |l| < B**jmax, one of each +-l."""
    case = draw(st.sampled_from(CASES))
    frame = frame_for(case)
    d, top = case[0], frame.B**frame.jmax
    span = range(-math.ceil(top), math.ceil(top) + 1)
    half = [
        l
        for l in itertools.product(span, repeat=d)
        if 0 < sum(v * v for v in l) < top**2 and next(v for v in l if v) > 0
    ]
    chosen = draw(st.lists(st.sampled_from(half), min_size=1, max_size=6, unique=True))
    # magnitudes below 1e-3 would only test underflow in the energy sums
    amp = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    cs = [(draw(amp), draw(amp)) for _ in chosen]
    if all(c == 0.0 and s == 0.0 for c, s in cs):
        cs[0] = (1.0, 0.0)
    freqs = np.array(chosen, dtype=float)

    def f(pts):
        phase = np.reshape(pts, (-1, d)) @ freqs.T
        return np.cos(phase) @ np.array([c for c, _ in cs]) + np.sin(phase) @ np.array(
            [s for _, s in cs]
        )

    energy = TWO_PI**d / 2.0 * sum(c * c + s * s for c, s in cs)
    sup_bound = sum(abs(c) + abs(s) for c, s in cs)
    band = int(np.max(np.abs(freqs)))
    return frame, f, energy, sup_bound, band


@PROPERTY
@given(trig_polynomial())
def test_tight_frame_energy_on_random_trig_polynomials(poly):
    frame, f, energy, _, band = poly
    coeffs = tn.analyze(frame, f, band_limit=band)
    assert_rel_close(coeffs.levels, oracle.analyze(frame, f, band_limit=band).levels)
    total = sum(float(np.sum(lv**2)) for lv in coeffs.levels)
    assert abs(total - energy) <= REL_TOL * energy


@PROPERTY
@given(trig_polynomial(), st.data())
def test_reconstruction_of_random_trig_polynomials_off_grid(poly, data):
    frame, f, _, sup_bound, band = poly
    pts = data.draw(angles(data.draw(st.integers(1, 30)), frame.d))
    rebuilt = tn.synthesize(frame, tn.analyze(frame, f, band_limit=band), pts)
    # f has no mean, so the tight frame gives it back whole; the sum of the
    # amplitudes bounds |f| and scales the tolerance
    assert float(np.max(np.abs(rebuilt - f(pts)))) <= REL_TOL * sup_bound
