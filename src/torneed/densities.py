"""Test densities on the torus: exact derivatives, sup-norms, exact draws.

Every density carries vectorized pdf and derivative evaluators, its sup-norm
in closed form, an exact draw driven by an external RNG (and the sampler
that reduces it to [0, 2pi)), and an
effective per-coordinate band limit that analysis quadratures use to size
their grids.

Evaluators work row by row: a point's value depends on that point alone.
Product densities use this on uniform_grid(G, d), where every column holds
the grid's axis: each factor is evaluated once on the G axis values and the
values are the outer product of the factors, bit-identical to evaluating
every row, so a grid of G^d points costs G evaluations per factor, not G^d.
Any other point set evaluates each factor at every row. Nothing is cached
across calls.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re

import numpy as np

from .frame import _grid_axis, _uniform_grid_size
from .harmonics import TWO_PI, as_multi_index, as_points, wrap_angles


@dataclasses.dataclass(frozen=True)
class TestDensity:
    """A known density with exact derivatives, its sup-norm, and a sampler.

    pdf(theta) and derivative(m, theta) accept an (n, d) array, or (n,) when
    d == 1, and return (n,). draw(rng, out) fills out, a caller-owned flat
    float array of n * d entries, with n points of the law as drawn, not
    reduced to [0, 2pi), and returns an (n, d) view of it: every phase the
    estimator takes of a point is 2pi-periodic, so a Monte Carlo loop reduces
    the draw as it is and reuses one out for every sample. sampler(rng, n)
    returns (n, d) points in [0, 2pi): unless given, it is wrap_angles of a
    draw into a fresh array, the one reduction rule of every density.

    Row-by-row contract: pdf and derivative compute each row from that row's
    coordinates alone, with the same floating-point result whatever the
    other rows are or how many there are. product_density relies on it to
    evaluate a factor only on the axis of a uniform grid: a factor's value
    at an axis point equals its value at that point inside a column. Every
    density built here meets it.
    """

    name: str
    d: int
    pdf: object
    derivative: object
    sup_norm: float
    draw: object
    sampler: object = None
    band_limit: int = 0

    def __post_init__(self):
        if self.sampler is None:
            draw, d = self.draw, self.d

            def sampler(rng, n):
                return wrap_angles(draw(rng, np.empty(n * d)))

            object.__setattr__(self, "sampler", sampler)


def uniform_density(d=1):
    """Constant density 1/(2pi)^d; every derivative vanishes."""
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    value = TWO_PI ** (-d)

    def pdf(theta):
        pts = as_points(theta, d)
        return np.full(pts.shape[0], value)

    def derivative(m, theta):
        m = as_multi_index(m, d)
        pts = as_points(theta, d)
        return np.full(pts.shape[0], value if sum(m) == 0 else 0.0)

    def draw(rng, out):
        points = out.reshape(-1, d)
        rng.random(out=points)
        return np.multiply(points, TWO_PI, out=points)

    return TestDensity(
        name="uniform" if d == 1 else f"uniform(d={d})",
        d=d,
        pdf=pdf,
        derivative=derivative,
        sup_norm=value,
        draw=draw,
    )


def _gaussian_derivative(order, x, sigma):
    """d^order/dtheta^order of exp(-x^2 / (2 sigma^2)) with x = theta + shift.

    Probabilists' Hermite polynomials: the q-th derivative of exp(-u^2/2) is
    (-1)^q He_q(u) exp(-u^2/2), and each theta-derivative contributes 1/sigma.
    numpy.polynomial is imported here, so only a derivative pays for it.
    """
    u = x / sigma
    gauss = np.exp(-0.5 * u**2)
    if order == 0:
        return gauss
    from numpy.polynomial.hermite_e import hermeval

    return (-1.0) ** order * sigma ** (-order) * hermeval(u, [0.0] * order + [1.0]) * gauss


# the wrapped normal sums its series over the shifts 2pi k, k = -10..10
_WRAP_TERMS = 10
# exp(-_CUT**2 / 2) = 1e-18: where the series' omitted terms and the Fourier
# coefficients are cut, relative to the largest
_CUT = math.sqrt(2.0 * 18.0 * math.log(10.0))
_MAX_SIGMA = TWO_PI * _WRAP_TERMS / _CUT


def wrapped_normal(sigma=1.0, literal=False):
    """Normal distribution wrapped around the circle, centered at 0 (d = 1).

    pdf(theta) = prefactor * sum_{k=-10..10} exp(-(theta+2pi k)^2 / (2 sigma^2))

    for theta reduced to [0, 2pi), with prefactor 1/(sigma sqrt(2pi)). The
    21-term series makes the mass exactly 1 up to its tail (below 1e-80 for
    sigma = 1). It resolves sigma <= 20pi / sqrt(36 ln 10) ~ 6.90; beyond
    that the omitted terms exceed 1e-18 relative, and such sigma is refused.
    band_limit = ceil(sqrt(36 ln 10) / sigma) + 1 is where the Fourier
    coefficients fall below 1e-18 relative. The density is a Jacobi theta
    function, symmetric and unimodal with its peak at its mean, so sup_norm
    is pdf(0). literal=True swaps in the prefactor 1/(2pi) instead; that
    shape integrates to sigma/sqrt(2pi), is NOT a density, and exists only
    for comparing against runs that used it verbatim. draw always draws
    from the normalized law: exact normal draws, unreduced, so a third of
    them leave (-2pi, 2pi) at sigma = 6.9. The sampler reduces them to
    [0, 2pi) by wrap_angles.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if sigma > _MAX_SIGMA:
        raise ValueError(f"sigma={sigma:g} is too large: the series needs sigma <= {_MAX_SIGMA:.4g}")
    # Fourier coefficients decay like exp(-l^2 sigma^2 / 2)
    reach = _CUT / sigma
    if reach > 2**62:
        raise ValueError(f"sigma={sigma:g} is too small: its band limit exceeds 2**62")
    band = int(math.ceil(reach)) + 1
    prefactor = 1.0 / TWO_PI if literal else 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    shifts = TWO_PI * np.arange(-_WRAP_TERMS, _WRAP_TERMS + 1)

    def _series(order, theta):
        th = wrap_angles(as_points(theta, 1)[:, 0])
        x = th[:, None] + shifts[None, :]
        return prefactor * _gaussian_derivative(order, x, sigma).sum(axis=1)

    def pdf(theta):
        return _series(0, theta)

    def derivative(m, theta):
        m = as_multi_index(m, 1)
        return _series(m[0], theta)

    def draw(rng, out):
        points = out.reshape(-1, 1)
        rng.standard_normal(out=points)
        # the bits of rng.normal(0.0, sigma) but for -0.0, which the wrap turns into 0.0 alike
        return np.multiply(points, sigma, out=points)

    name = f"wrapped_normal_literal({sigma:g})" if literal else f"wrapped_normal({sigma:g})"
    return TestDensity(
        name=name,
        d=1,
        pdf=pdf,
        derivative=derivative,
        sup_norm=float(pdf(np.zeros(1))[0]),
        draw=draw,
        band_limit=band,
    )


def product_density(components):
    """Independent product of 1-d densities, one per coordinate.

    On exactly uniform_grid(G, d) (frame._uniform_grid_size decides), pdf
    and derivative evaluate each factor once on the grid's axis and take
    the outer product of the factors; any other point set evaluates each
    factor on its own column. Either way the factors multiply 1.0 in
    coordinate order, so each row rounds as a row-by-row product (the
    factors' row-by-row contract, see TestDensity). The grid check uses ==,
    so a grid's -0.0 is evaluated at +0.0, which every factor here wraps
    (wrap_angles maps -0.0 to 0.0) or ignores.
    """
    components = list(components)
    if not components:
        raise ValueError("product needs at least one component")
    for comp in components:
        if comp.d != 1:
            raise ValueError(f"product components must be 1-d, got {comp.name} with d={comp.d}")
    d = len(components)

    def _product(theta, factors):
        pts = as_points(theta, d)
        npts = _uniform_grid_size(pts)
        out = np.ones(1 if npts else pts.shape[0])
        for i, factor in enumerate(factors):
            # uniform_grid's rows are the outer product's: the last coordinate runs fastest
            values = factor(_grid_axis(npts) if npts else pts[:, i])
            out = np.multiply.outer(out, values).reshape(-1) if npts else out * values
        return out

    def pdf(theta):
        return _product(theta, [comp.pdf for comp in components])

    def derivative(m, theta):
        m = as_multi_index(m, d)
        return _product(
            theta, [functools.partial(comp.derivative, (mi,)) for comp, mi in zip(components, m)]
        )

    def draw(rng, out):
        # factor i draws row i of a (d, n) view, in coordinate order; its transpose is the sample
        rows = out.reshape(d, -1)
        for comp, row in zip(components, rows):
            comp.draw(rng, row)
        return rows.T

    return TestDensity(
        name="product(" + ",".join(comp.name for comp in components) + ")",
        d=d,
        pdf=pdf,
        derivative=derivative,
        sup_norm=float(np.prod([comp.sup_norm for comp in components])),
        draw=draw,
        band_limit=max(comp.band_limit for comp in components),
    )


def _split_top_level(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def density_from_name(name, d=None):
    """Look up a density by registry string.

    Known forms: "uniform", "wrapped_normal(sigma)",
    "wrapped_normal_literal(sigma)", and "product(name,name,...)" over 1-d
    factors. d disambiguates "uniform" and is checked against the rest.
    """
    text = name.strip()
    if text == "uniform":
        density = uniform_density(d if d is not None else 1)
    else:
        call = re.fullmatch(r"(\w+)\((.*)\)", text)
        if call is None:
            raise ValueError(
                f"unknown density {name!r}; known: uniform, wrapped_normal(sigma), "
                "wrapped_normal_literal(sigma), product(...)"
            )
        head, inner = call.group(1), call.group(2)
        if head == "wrapped_normal":
            density = wrapped_normal(float(inner))
        elif head == "wrapped_normal_literal":
            density = wrapped_normal(float(inner), literal=True)
        elif head == "product":
            parts = _split_top_level(inner)
            density = product_density([density_from_name(part, d=1) for part in parts])
        else:
            raise ValueError(
                f"unknown density {name!r}; known: uniform, wrapped_normal(sigma), "
                "wrapped_normal_literal(sigma), product(...)"
            )
    if d is not None and density.d != d:
        raise ValueError(f"density {density.name} has d={density.d}, config says d={d}")
    return density


def truth_on_grid(truth, m, grid):
    """The truth's m-th derivative at the rows of an (n, d) grid, refused when it is not finite.

    An order |m| that size_violations passes may still overflow the truth's
    derivative (a wrapped normal's Hermite polynomial at |m| = 640), which
    would turn every grid risk, and every truth column the CLI writes, into
    NaN; it is refused by name instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below by name
        values = truth.derivative(m, grid)
    if not np.isfinite(values).all():
        raise ValueError(
            f"derivative order |m|={sum(m)} overflows a float in the truth's derivative on the grid"
        )
    return values
