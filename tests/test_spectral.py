"""The spectral core against the direct-sum oracle, on random inputs.

Property tests draw samples, coefficient arrays and trigonometric polynomials
for d in {1, 2, 3} and B in {2, 1.7, 1.5}, and hold the box-spectrum/FFT
transforms of torneed.frame to the dense sums of direct_oracle at 1e-12
relative. Example generation is derandomized so a failure reproduces.
"""

import itertools
import math

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
    block_rows,
    box_half_width,
    sample_spectrum,
    spectrum_block_shape,
    spectrum_values,
)
from torneed.harmonics import TWO_PI

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


def assert_rel_close(got, want):
    """Largest deviation over all arrays, relative to the largest reference magnitude."""
    got = np.concatenate([np.ravel(v) for v in got])
    want = np.concatenate([np.ravel(v) for v in want])
    err, scale = float(np.max(np.abs(got - want))), float(np.max(np.abs(want)))
    # an identically zero reference (e.g. m kills every frequency of a shell) needs exact zeros
    assert err <= REL_TOL * scale, f"deviation {err:.3e} against reference magnitude {scale:.3e}"


def assert_synthesis_matches(frame, coeffs, pts):
    # a fixed probe grid brings the function's magnitude into the scale, so
    # points drawn where it happens to be near zero do not tighten the tolerance
    probe = np.vstack([pts, tn.uniform_grid(6, frame.d)])
    got = tn.synthesize(frame, coeffs, probe)
    assert_rel_close([got], [oracle.synthesize(frame, coeffs, probe)])


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
    return frame, tn.CoefficientArray((0,) * case[0], levels, "empirical")


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


@pytest.mark.parametrize("d,L", [(1, 7), (2, 4), (3, 2)])
def test_row_blocking_does_not_change_the_core(monkeypatch, d, L):
    rng = np.random.default_rng(10 + d)
    X = rng.uniform(0.0, TWO_PI, (57, d))
    A = rng.normal(size=(2 * L + 1,) * d) + 1j * rng.normal(size=(2 * L + 1,) * d)
    whole_S, whole_f = sample_spectrum(X, L), spectrum_values(A, X)
    # a budget of a few rows forces many blocks, including a ragged last one
    monkeypatch.setattr(frame_mod, "PHASE_BLOCK_BYTES", 16 * 5 * (2 * L + 1) ** max(d - 1, 1))
    assert spectrum_block_shape(57, d, L)[0] == 5
    assert_rel_close([sample_spectrum(X, L)], [whole_S])
    assert_rel_close([spectrum_values(A, X)], [whole_f])


def test_phase_blocks_stay_under_the_byte_budget():
    # d=3, J=3 at B=2 (box L=15) and a 10^5-row sample: only shapes are computed
    n = 10**5
    L = box_half_width(2.0, 3)
    assert L == 15
    for d in (1, 2, 3):
        rows, width = spectrum_block_shape(n, d, L)
        assert 1 <= rows < n
        assert 16 * rows * width <= PHASE_BLOCK_BYTES
    nf = tn.frequency_shell(3, 2.0, 3).shape[0]  # the level-3 shell _phases would span
    rows = block_rows(n, nf)
    assert 16 * rows * nf <= PHASE_BLOCK_BYTES
    # a fixed 32768-row chunk of that shell would need gigabytes
    assert 16 * 32768 * nf > 2**30


def test_block_rows_bounds():
    assert block_rows(3, 1) == 3  # never more rows than there are
    assert block_rows(10**9, 10**9) == 1  # never fewer than one
    assert block_rows(10**9, 4) == PHASE_BLOCK_BYTES // 64


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
