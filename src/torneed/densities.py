"""Test densities on the torus: exact derivatives, sup-norms, exact samplers.

Every density carries vectorized pdf and derivative evaluators, a numerically
certified sup-norm, an exact sampler driven by an external RNG, and an
effective per-coordinate band limit that analysis quadratures use to size
their grids.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
from numpy.polynomial import hermite_e

from .harmonics import TWO_PI, as_multi_index, as_points


@dataclasses.dataclass(frozen=True)
class TestDensity:
    """A known density with exact derivatives, a sup-norm, and a sampler.

    pdf(theta) and derivative(m, theta) accept an (n, d) array, or (n,) when
    d == 1, and return (n,). sampler(rng, n) returns (n, d) points in
    [0, 2pi). mass is 1 for genuine densities; literal display shapes kept
    for comparison runs record their true integral here.
    """

    name: str
    d: int
    pdf: object
    derivative: object
    sup_norm: float
    sampler: object
    max_derivative_order: int
    band_limit: int = 0
    mass: float = 1.0


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

    def sampler(rng, n):
        return rng.random((n, d)) * TWO_PI

    return TestDensity(
        name="uniform" if d == 1 else f"uniform(d={d})",
        d=d,
        pdf=pdf,
        derivative=derivative,
        sup_norm=value,
        sampler=sampler,
        max_derivative_order=99,
        band_limit=0,
    )


def _gaussian_derivative(order, x, sigma):
    """d^order/dtheta^order of exp(-x^2 / (2 sigma^2)) with x = theta + shift.

    Probabilists' Hermite polynomials: the q-th derivative of exp(-u^2/2) is
    (-1)^q He_q(u) exp(-u^2/2), and each theta-derivative contributes 1/sigma.
    """
    u = x / sigma
    gauss = np.exp(-0.5 * u**2)
    if order == 0:
        return gauss
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    return (-1.0) ** order * sigma ** (-order) * hermite_e.hermeval(u, coeffs) * gauss


def _refine_max(fn, at, span):
    """Largest value of a vectorized fn found by zooming in on [at - span, at + span].

    Each round evaluates fn at 65 equispaced points and re-centres the
    bracket on the best one with a half-width of two grid steps, so it
    shrinks 16-fold per round until it is below 1e-12. Deterministic.
    """
    best = -math.inf
    while span > 1e-12:
        t = np.linspace(at - span, at + span, 65)
        vals = fn(t)
        i = int(np.argmax(vals))
        at, best = t[i], max(best, float(vals[i]))
        span /= 16.0
    return best


def wrapped_normal(sigma=1.0, terms=10, literal=False):
    """Normal distribution wrapped around the circle, centered at 0 (d = 1).

    pdf(theta) = prefactor * sum_{k=-terms..terms} exp(-(theta+2pi k)^2 / (2 sigma^2))

    with prefactor 1/(sigma sqrt(2pi)), which makes the mass exactly 1 up to
    the series tail (below 1e-80 for sigma = 1, terms = 10). literal=True
    swaps in the prefactor 1/(2pi) instead; that shape integrates to
    sigma/sqrt(2pi), is NOT a density, and exists only for comparing against
    runs that used it verbatim. The sampler always draws from the normalized
    law: wrap an exact normal draw modulo 2pi.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if terms < 1:
        raise ValueError("need at least one wrap term")
    # Fourier coefficients decay like exp(-l^2 sigma^2 / 2); cut where they
    # drop below 1e-18 relative
    reach = math.sqrt(2.0 * 18.0 * math.log(10.0)) / sigma
    if reach > 2**62:
        raise ValueError(f"sigma={sigma:g} is too small: its band limit exceeds 2**62")
    band = int(math.ceil(reach)) + 1
    prefactor = 1.0 / TWO_PI if literal else 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    shifts = TWO_PI * np.arange(-terms, terms + 1)

    def _series(order, theta):
        th = np.mod(as_points(theta, 1)[:, 0], TWO_PI)
        x = th[:, None] + shifts[None, :]
        return prefactor * _gaussian_derivative(order, x, sigma).sum(axis=1)

    def pdf(theta):
        return _series(0, theta)

    def derivative(m, theta):
        m = as_multi_index(m, 1)
        return _series(m[0], theta)

    def sampler(rng, n):
        return np.mod(rng.normal(0.0, sigma, (n, 1)), TWO_PI)

    # certify the sup-norm by grid search plus local refinement; do not
    # assume the peak sits at 0 even though it does
    probe = np.linspace(0.0, TWO_PI, 4097)
    vals = pdf(probe)
    at = probe[int(np.argmax(vals))]
    sup_norm = max(_refine_max(pdf, at, TWO_PI / 4096), float(vals.max()))

    name = f"wrapped_normal_literal({sigma:g})" if literal else f"wrapped_normal({sigma:g})"
    return TestDensity(
        name=name,
        d=1,
        pdf=pdf,
        derivative=derivative,
        sup_norm=sup_norm,
        sampler=sampler,
        max_derivative_order=6,
        band_limit=band,
        mass=1.0 if not literal else sigma / math.sqrt(2.0 * math.pi),
    )


def product_density(components):
    """Independent product of 1-d densities, one per coordinate."""
    components = list(components)
    if not components:
        raise ValueError("product needs at least one component")
    for comp in components:
        if comp.d != 1:
            raise ValueError(f"product components must be 1-d, got {comp.name} with d={comp.d}")
    d = len(components)

    def pdf(theta):
        pts = as_points(theta, d)
        out = np.ones(pts.shape[0])
        for i, comp in enumerate(components):
            out *= comp.pdf(pts[:, i])
        return out

    def derivative(m, theta):
        m = as_multi_index(m, d)
        pts = as_points(theta, d)
        out = np.ones(pts.shape[0])
        for i, comp in enumerate(components):
            out *= comp.derivative((m[i],), pts[:, i])
        return out

    def sampler(rng, n):
        return np.column_stack([comp.sampler(rng, n)[:, 0] for comp in components])

    return TestDensity(
        name="product(" + ",".join(comp.name for comp in components) + ")",
        d=d,
        pdf=pdf,
        derivative=derivative,
        sup_norm=float(np.prod([comp.sup_norm for comp in components])),
        sampler=sampler,
        max_derivative_order=min(comp.max_derivative_order for comp in components),
        band_limit=max(comp.band_limit for comp in components),
        mass=float(np.prod([comp.mass for comp in components])),
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
            factors = [density_from_name(part, d=1) for part in _split_top_level(inner)]
            density = product_density(factors)
        else:
            raise ValueError(
                f"unknown density {name!r}; known: uniform, wrapped_normal(sigma), "
                "wrapped_normal_literal(sigma), product(...)"
            )
    if d is not None and density.d != d:
        raise ValueError(f"density {density.name} has d={density.d}, config says d={d}")
    return density
