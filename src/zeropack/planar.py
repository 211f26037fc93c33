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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (RngStream, TruncationError, _check_counts, _check_positive, _gaf_mc,
                       _power_of_two_at_least, gaf_expected, gauss_legendre, richardson)
from .reports import DiscrepancyReport
from .weierstrass import (
    WeierstrassContext,
    _quadratic_grid,
    log_abs_sigma,
    log_abs_sigma_grid,
    make_context,
)

_MAX_GRID = 8192  # largest accepted grid_m
_LADDER_TOP = 128  # finest extrapolation level: past it a finer grid buys no accuracy
_MAX_TRUNCATION = 100_000  # largest planar GAF series degree


@dataclass(frozen=True)
class TriangularProfile:
    """Equilateral-lattice profile: the lattice's Weierstrass context, whose half-periods are
    omega1 = alpha and alpha e^{i pi/3}, the periodizing quadratic twist eta and the weight
    scale c."""

    ctx: WeierstrassContext
    eta: complex
    weight_scale: float


def make_triangular_profile(weight_scale: float = 1.0) -> TriangularProfile:
    """Profile for weight e^{-c|z|^2} with the lattice rescaled by 1/sqrt(c).

    For c = 1 this is the normalized equilateral profile; eta is computed
    generically as c - zeta(omega1)/(2*omega1), never assumed.
    """
    _check_positive(weight_scale=weight_scale)
    c = float(weight_scale)
    alpha = math.sqrt(math.pi) / (2.0 * 3.0**0.25) / math.sqrt(c)
    ctx = make_context(alpha, alpha * complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)))
    eta = c - ctx.eta1 / (2.0 * ctx.omega1)
    return TriangularProfile(ctx=ctx, eta=eta, weight_scale=c)


def log_profile(p: TriangularProfile, z) -> np.ndarray:
    """log P(z) elementwise (-inf at lattice points); assembled in log space."""
    z = np.asarray(z, dtype=complex)
    quad = (p.eta * z * z).real
    return -p.weight_scale * np.abs(z) ** 2 + quad + log_abs_sigma(p.ctx, z)


def _log_profile_rows(p: TriangularProfile, m: int) -> np.ndarray:
    """log P on the m x m midpoint grid of the rhombus, shape (m, m) with rows along t.

    log_abs_sigma_grid plus the quadratic part -c|z|^2 + Re(eta z^2), both separable in
    the rhombus coordinates, so no complex z grid is formed.
    """
    s = (np.arange(m) + 0.5) / m
    out = log_abs_sigma_grid(p.ctx, s, s).T
    out += _quadratic_grid(2.0 * p.ctx.omega2, 2.0 * p.ctx.omega1, s, s, p.eta, -p.weight_scale)
    return out


@functools.lru_cache(maxsize=8)
def _log_profile_ladder(p: TriangularProfile, top: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """log P on the midpoint grids m = top/8, top/4, top/2, top as one flat array, and the m.

    Built once per (profile, top), read-only, one log_abs_sigma_grid call per level: 21,760
    points at top = 128.
    """
    sizes = (top >> 3, top >> 2, top >> 1, top)
    flat = np.concatenate([_log_profile_rows(p, m).ravel() for m in sizes])
    flat.setflags(write=False)
    return flat, sizes


def _ladder_means(
    p: TriangularProfile, beta: float, top: int
) -> tuple[tuple[list[float], list[float]], list[float]]:
    """Midpoint means of P^beta and of P^(2 beta) on the _log_profile_ladder levels, coarsest
    first, and their steps: one exponential per point, its square as the second row, and one
    row-wise pairwise sum per level for both."""
    flat, sizes = _log_profile_ladder(p, top)
    bounds = np.cumsum([0] + [m * m for m in sizes])
    vals = np.empty((2, flat.size))
    with np.errstate(over="ignore"):  # a huge beta: planar_lattice_density raises on the inf mean
        np.exp(beta * flat, out=vals[0])
        np.square(vals[0], out=vals[1])
        sums = [vals[:, a:b].sum(axis=1) / (b - a) for a, b in zip(bounds, bounds[1:])]
    return ([float(s[0]) for s in sums], [float(s[1]) for s in sums]), [1.0 / m for m in sizes]


def planar_lattice_density(
    beta: float,
    grid_m: int,
    profile: TriangularProfile | None = None,
) -> DiscrepancyReport:
    """Discrepancy density of the lattice profile at exponent beta.

    Each moment, the mean of P^e over the rhombus (e = beta, 2 beta), is extrapolated from
    midpoint means on the (s, t) |-> 2*omega1*s + 2*omega2*t grids top/8, ..., top, with
    top = min(grid_m, 128): every grid_m >= 128 shares the cached 128 ladder.  Both come from
    one exponential per point, P^(2 beta) being the square of P^beta.  P^e behaves
    like |z - z0|^e at the lattice zeros, so the midpoint error on the periodic rhombus is a
    series in h^{2+e+2k} (generalized Euler-Maclaurin: Navot 1962, Lyness 1976).  For an even
    integer e those terms vanish and the mean converges spectrally; from e = 51 on, halving h
    shrinks them below rounding.  Neither case is fit.  The error estimate is the change in
    rho when the finest level is dropped, at least 4 ulps of 1 (rho cancels against 1).
    """
    _check_positive(beta=beta)
    _check_counts(16, _MAX_GRID, grid_m=grid_m)
    p = profile if profile is not None else _default_profile()
    both, steps = _ladder_means(p, beta, min(grid_m, _LADDER_TOP))
    moments = []
    for e, means in zip((beta, 2.0 * beta), both):
        if min(means) < np.finfo(float).tiny:  # a subnormal or zero mean has lost its digits
            raise ArithmeticError(f"mean of P^{e:g} underflows ({min(means):.3g}) at beta = {beta:g}")
        if not math.isfinite(max(means)):
            raise OverflowError(f"mean of P^{e:g} overflows double precision at beta = {beta:g}")
        powers = (e + 2.0, e + 4.0, e + 6.0) if e % 2.0 != 0.0 and e < 51.0 else ()
        moments.append(richardson(means, steps, powers))
    (m1, d1), (m2, d2) = moments
    rho_coarser = 1.0 - (m1 - d1) * (m1 - d1) / (m2 - d2)
    rho = 1.0 - m1 * m1 / m2
    estimate = max(abs(rho - rho_coarser), 4.0 * math.ulp(1.0))
    return DiscrepancyReport(m1=m1, m2=m2, error_estimate=estimate)


@functools.lru_cache(maxsize=4)
def _default_profile() -> TriangularProfile:
    return make_triangular_profile(1.0)


def density_curve(betas, grid_m: int, profile: TriangularProfile | None = None):
    """planar_lattice_density along an increasing beta grid, one shared ladder; rows to replot."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be nonempty")
    if any(b <= 0.0 for b in betas):
        raise ValueError("betas must be positive")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    return [(b, planar_lattice_density(b, grid_m, profile=profile)) for b in betas]


planar_gaf_expected = gaf_expected


def _planar_gaf_terms(R: float, start: int, floor: float = 1e-30):
    """2^j R^{2j} / j! * e^{-2R^2} for j = start, start + 1, ... up to the first one below floor
    past j = 2R^2 + 10."""
    log_base = math.log(2.0) + 2.0 * math.log(R)
    for j in itertools.count(start):
        t = math.exp(j * log_base - math.lgamma(j + 1.0) - 2.0 * R * R)
        yield t
        if t < floor and j > 2.0 * R * R + 10:
            return


def planar_gaf_tail(R: float, N: int) -> float:
    """Tail bound sum_{j>N} 2^j R^{2j} / j! * e^{-2R^2} for the mean-square of F.

    The terms are the Poisson(2R^2) probabilities.  Past the peak the tail is summed upward;
    below it, it is 1 less the head sum_{j<=N}, whose terms fall geometrically from j = N down.
    """
    if not (0.0 < R < math.inf):
        raise ValueError(f"R must be positive and finite, got {R}")
    _check_counts(N=N)
    peak = 2.0 * R * R  # inf for R above 1e154: then every head term is 0 and the tail is 1
    if N + 1 > peak:
        return sum(_planar_gaf_terms(R, N + 1))
    head = term = 0.0 if N < 0 else next(_planar_gaf_terms(R, N))
    for j in range(N, 0, -1):
        if term < 1e-30:
            break
        term *= j / peak
        head += term
    return 1.0 - head


def planar_gaf_truncation(R: float, tol: float = 1e-8) -> int:
    """Smallest degree N >= max(8, 2R^2) with planar_gaf_tail(R, N) < tol, in one pass: every
    candidate's tail is a suffix sum of the same terms, accumulated from the smallest up."""
    _check_positive(R=R, tol=tol)
    if 2.0 * R * R > _MAX_TRUNCATION:  # N >= 2R^2; for R above 1e154 that is inf
        raise TruncationError(f"no admissible truncation degree up to {_MAX_TRUNCATION}, R = {R}")
    first = max(8, int(2.0 * R * R))
    terms = list(_planar_gaf_terms(R, first + 1, 1e-22 * tol))
    N, tail = first + len(terms), 0.0
    for k in reversed(range(len(terms))):
        tail += terms[k]
        if tail >= tol:
            break
        N = first + k
    if N > _MAX_TRUNCATION:
        raise TruncationError(f"no admissible truncation degree up to {_MAX_TRUNCATION}, R = {R}")
    return N


def planar_gaf_mc(
    R: float,
    b: float,
    truncation_N: int,
    trials: int,
    rng: RngStream,
    threads: int = 1,
    n_radial: int | None = None,
    n_angular: int | None = None,
):
    """Monte Carlo mean and standard error of the disk-averaged GAF discrepancy.

    Each trial draws coefficients for F(z) = sum xi_j 2^{j/2} z^j / sqrt(j!)
    on its own substream of `rng` and integrates
    (b |F| e^{-|z|^2} - 1)^2 / R^2 over D(0, R) by a polar product rule, less the control
    term of numerics._gaf_mc.  F is summed on the grid by the polar FFT kernel with the scales
    2^{j/2} / sqrt(j!) in log space, so no term underflows (in plain double every scale from
    j = 356 on is 0).  Trial results are indexed, so the estimate is thread-count independent.

    The field decorrelates over a distance of order 1, so by default the grid follows R:
    n_radial = ceil(4R) and n_angular the power of two >= 8 pi R, clamped to [16, 192] and
    [16, 256].  Any grid gives an unbiased trial; a finer one only lowers its variance.
    """
    _check_positive(R=R)
    if n_radial is None:
        n_radial = min(192, max(16, math.ceil(4.0 * R)))
    if n_angular is None:
        n_angular = _power_of_two_at_least(8.0 * math.pi * R, 16, 256)
    _check_counts(0, _MAX_TRUNCATION, truncation_N=truncation_N)
    _check_counts(1, None, n_radial=n_radial)
    tail = planar_gaf_tail(R, truncation_N)
    if not (tail < 1e-8):
        raise TruncationError(
            f"truncation_N = {truncation_N} leaves tail bound {tail:.3e} >= 1e-8 at R = {R}"
        )
    rule = gauss_legendre(n_radial, 0.0, R)
    j = np.arange(truncation_N + 1)
    log_scales = 0.5 * (j * math.log(2.0) - np.array([math.lgamma(k + 1.0) for k in j]))
    weights = 2.0 * (rule.nodes / R) * (rule.weights / R)  # R * R underflows for R below 1e-154
    return _gaf_mc(log_scales, rule.nodes, weights, -rule.nodes**2, b, n_angular, trials, rng,
                   threads)
