"""Planar triangular-lattice discrepancy densities and the planar GAF Monte Carlo.

The candidate profile is the amplitude-free doubly periodic weight

    P(z) = e^{-c|z|^2 + Re(eta z^2)} |sigma(z)|

on the equilateral lattice with half-periods alpha, alpha*e^{i pi/3} and
spacing fixed by 2*alpha = sqrt(pi)/3^{1/4}, which normalizes the fundamental
rhombus to area 1/2 in the measure dA = dx dy / pi.  The default weight scale
is c = 1; the constructor accepts other scales (with the lattice rescaled by
1/sqrt(c)) so the scaling invariance of the density can be exercised directly.

Averaging P^{k beta} over the rhombus gives the moments M_k, and the optimal
amplitude collapses in closed form: rho = 1 - M_1^2 / M_2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _polar_values, gauss_legendre, map_indexed, sample_complex_gaussians
from .reports import DiscrepancyReport, make_report
from .weierstrass import WeierstrassContext, log_abs_sigma, make_context

_BLOCK_ROWS = 64  # grid rows per evaluation block, keeps peak memory flat


@dataclass(frozen=True)
class TriangularProfile:
    """Equilateral-lattice profile with its periodizing quadratic twist."""

    ctx: WeierstrassContext
    alpha: float
    eta: complex
    weight_scale: float

    @property
    def cell_area(self) -> float:
        """Area of the fundamental rhombus in the normalized measure dx dy / pi."""
        p1 = 2.0 * self.ctx.omega1
        p2 = 2.0 * self.ctx.omega2
        return abs((p1.conjugate() * p2).imag) / math.pi


def make_triangular_profile(weight_scale: float = 1.0) -> TriangularProfile:
    """Profile for weight e^{-c|z|^2} with the lattice rescaled by 1/sqrt(c).

    For c = 1 this is the normalized equilateral profile; eta is computed
    generically as c - zeta(omega1)/(2*omega1), never assumed.
    """
    if not (weight_scale > 0.0):
        raise ValueError(f"weight_scale must be positive, got {weight_scale}")
    c = float(weight_scale)
    alpha = math.sqrt(math.pi) / (2.0 * 3.0**0.25) / math.sqrt(c)
    ctx = make_context(alpha, alpha * complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)))
    eta = c - ctx.eta1 / (2.0 * ctx.omega1)
    return TriangularProfile(ctx=ctx, alpha=alpha, eta=eta, weight_scale=c)


def log_profile(p: TriangularProfile, z) -> np.ndarray:
    """log P(z) elementwise (-inf at lattice points); assembled in log space."""
    z = np.asarray(z, dtype=complex)
    quad = (p.eta * z * z).real
    return -p.weight_scale * np.abs(z) ** 2 + quad + log_abs_sigma(p.ctx, z)


def profile_value(p: TriangularProfile, z: complex) -> float:
    """P(z) = e^{-c|z|^2 + Re(eta z^2)} |sigma(z)| at a single point."""
    return float(np.exp(log_profile(p, complex(z))))


def _rhombus_blocks(p: TriangularProfile, m: int):
    """The m x m midpoint grid of the rhombus, _BLOCK_ROWS grid rows at a time."""
    p1 = 2.0 * p.ctx.omega1
    p2 = 2.0 * p.ctx.omega2
    s = (np.arange(m) + 0.5) / m
    for start in range(0, m, _BLOCK_ROWS):
        t = s[start:start + _BLOCK_ROWS]
        yield p1 * s[None, :] + p2 * t[:, None]


def _rhombus_means(p: TriangularProfile, beta: float, m: int, profile_fn=None):
    """(mean P^beta, mean P^{2 beta}) over the m x m midpoint grid of the rhombus."""
    acc1 = 0.0
    acc2 = 0.0
    for Z in _rhombus_blocks(p, m):
        if profile_fn is not None:
            vals = np.asarray(profile_fn(Z), dtype=float)
            lp = np.log(vals, out=np.full_like(vals, -np.inf), where=vals > 0)
        else:
            lp = log_profile(p, Z)
        acc1 += float(np.sum(np.exp(beta * lp)))
        acc2 += float(np.sum(np.exp(2.0 * beta * lp)))
    return acc1 / (m * m), acc2 / (m * m)


def planar_lattice_density(
    beta: float,
    grid_m: int,
    profile: TriangularProfile | None = None,
    profile_fn=None,
) -> DiscrepancyReport:
    """Discrepancy density of the lattice profile at exponent beta.

    Midpoint quadrature on the (s, t) |-> 2*omega1*s + 2*omega2*t
    parametrization with an m x m grid; the error estimate is the change in
    rho against the m/2 grid.  `profile_fn` is a test hook replacing the
    profile evaluation with an arbitrary nonnegative field on the rhombus.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    if grid_m < 16:
        raise ValueError(f"grid_m must be >= 16, got {grid_m}")
    p = profile if profile is not None else _default_profile()
    m1, m2 = _rhombus_means(p, beta, grid_m, profile_fn)
    h1, h2 = _rhombus_means(p, beta, max(grid_m // 2, 8), profile_fn)
    rho_half = 1.0 - h1 * h1 / h2
    rho = 1.0 - m1 * m1 / m2
    return make_report(m1=m1, m2=m2, error_estimate=abs(rho - rho_half))


@functools.lru_cache(maxsize=4)
def _default_profile() -> TriangularProfile:
    return make_triangular_profile(1.0)


def density_curve(betas, grid_m: int, profile: TriangularProfile | None = None):
    """planar_lattice_density along an increasing beta grid; rows for replotting."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be nonempty")
    if any(b <= 0.0 for b in betas):
        raise ValueError("betas must be positive")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    return [(b, planar_lattice_density(b, grid_m, profile=profile)) for b in betas]


def planar_gaf_expected(b: float) -> float:
    """Expected discrepancy of the amplitude-b planar GAF: b^2 - b*sqrt(pi) + 1."""
    if not (b > 0.0):
        raise ValueError(f"b must be positive, got {b}")
    return b * b - b * math.sqrt(math.pi) + 1.0


class TruncationError(ValueError):
    """Requested series truncation fails its tail bound."""


def planar_gaf_tail(R: float, N: int) -> float:
    """Tail bound sum_{j>N} 2^j R^{2j} / j! * e^{-2R^2} for the mean-square of F."""
    log_base = math.log(2.0) + 2.0 * math.log(R)
    total = 0.0
    for j in range(N + 1, N + 2000):
        t = math.exp(j * log_base - math.lgamma(j + 1.0) - 2.0 * R * R)
        total += t
        if t < 1e-30 and j > 2.0 * R * R + 10:
            break
    return total


def planar_gaf_truncation(R: float, tol: float = 1e-8) -> int:
    """Smallest truncation degree whose tail bound is below tol."""
    if not (R > 0.0):
        raise ValueError(f"R must be positive, got {R}")
    N = max(8, int(2.0 * R * R))
    while planar_gaf_tail(R, N) >= tol:
        N += 1
        if N > 100000:
            raise TruncationError("no admissible truncation degree found")
    return N


def planar_gaf_mc(
    R: float,
    b: float,
    truncation_N: int,
    trials: int,
    rng: RngStream,
    threads: int = 1,
    n_radial: int = 192,
    n_angular: int = 256,
):
    """Monte Carlo mean and standard error of the disk-averaged GAF discrepancy.

    Each trial draws coefficients for F(z) = sum xi_j 2^{j/2} z^j / sqrt(j!)
    on its own substream of `rng` and integrates
    (b |F| e^{-|z|^2} - 1)^2 / R^2 over D(0, R) by a polar product rule.
    F is summed on the grid by the polar FFT kernel with the scales 2^{j/2} / sqrt(j!)
    in log space, so no term underflows (in plain double every scale from j = 356 on is 0).
    Trial results are indexed, so the estimate is thread-count independent.
    """
    if not (0 < R):
        raise ValueError(f"R must be positive, got {R}")
    if not (b > 0.0):
        raise ValueError(f"b must be positive, got {b}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    tail = planar_gaf_tail(R, truncation_N)
    if tail >= 1e-8:
        raise TruncationError(
            f"truncation_N = {truncation_N} leaves tail bound {tail:.3e} >= 1e-8 at R = {R}"
        )
    rule = gauss_legendre(n_radial, 0.0, R)
    envelope = np.exp(-rule.nodes[:, None] ** 2)
    radial_w = rule.weights * rule.nodes
    # log of the deterministic coefficient scales 2^{j/2} / sqrt(j!)
    j = np.arange(truncation_N + 1)
    log_scales = 0.5 * (j * math.log(2.0) - np.array([math.lgamma(k + 1.0) for k in j]))

    def one_trial(i: int) -> float:
        eta = sample_complex_gaussians(rng.substream(i), truncation_N + 1)
        modulus = np.abs(_polar_values(eta, log_scales, rule.nodes, n_angular))
        integrand = (b * modulus * envelope - 1.0) ** 2
        return float(2.0 / (R * R * n_angular) * np.dot(radial_w, integrand.sum(axis=1)))

    vals = np.array(map_indexed(one_trial, trials, threads))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def torus_monopole(p: TriangularProfile, z: complex, w: complex, grid_m: int = 256) -> float:
    """Logarithmic monopole on the rhombus torus: log P(z - w), centered.

    The free additive constant is fixed by the convention that the rhombus
    average of the monopole vanishes.
    """
    return float(log_profile(p, complex(z) - complex(w))) - _log_profile_mean(p, grid_m)


@functools.lru_cache(maxsize=16)
def _log_profile_mean(p: TriangularProfile, m: int) -> float:
    total = 0.0
    for Z in _rhombus_blocks(p, m):
        total += float(np.sum(log_profile(p, Z)))
    return total / (m * m)
