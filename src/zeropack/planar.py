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

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (RngStream, TruncationError, _check_counts, _check_positive, _gaf_mc,
                       _power_of_two_at_least, gaf_expected, gauss_legendre)
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
_TINY = np.finfo(float).tiny  # smallest normal double
_SAFE_LOG = 345.0  # beta max|log P| below which a sum of m^2 <= 128^2 P^(2 beta) stays finite
_ORBIT_TOL = 1e-10  # largest distance of log P from its grid orbit's mean (1.2e-14 at m = 128)
_MAX_TRUNCATION = 100_000  # largest planar GAF series degree


@dataclass(frozen=True)
class TriangularProfile:
    """Equilateral-lattice profile: the lattice's Weierstrass context, whose half-periods are
    omega1 = alpha and alpha e^{i pi/3}, the periodizing quadratic twist eta and the weight
    scale c.  Build it with make_triangular_profile: the density folds the rhombus grid by the
    symmetries of this lattice, and refuses (ValueError) a hand-built profile whose log P does
    not have them."""

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
def _log_profile_ladder(
    p: TriangularProfile, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """log P on the midpoint grids m = top/8, top/4, top/2, top, one value per symmetry orbit.

    Returns (logs, counts, bounds, sizes, reach): level k holds logs[bounds[k]:bounds[k + 1]]
    with orbit sizes counts[bounds[k]:bounds[k + 1]], which sum to m^2, m = sizes[k], and
    reach is the largest |log P|.  The grid (s, t) = ((i + 1/2)/m, (j + 1/2)/m) maps onto itself
    under the swap (s, t) -> (t, s), the reflection across the bisector of omega1 and omega2,
    and under (s, t) -> (1 - s, 1 - t), as P is even and periodic.  An orbit has 4 points, 2
    on i = j or on i + j = m - 1, and 1 at the centre of an odd m; its representative has
    i <= j and i + j <= m - 1 (5,560 of the 21,760 points at top = 128).  Each level comes
    from one log_abs_sigma_grid call on the full grid, and a representative holds the mean of
    its orbit's four partner values, summed in the order (i, j), (j, i), (m-1-i, m-1-j),
    (m-1-j, m-1-i).  ValueError if a value lies more than _ORBIT_TOL from its orbit's mean,
    as on a lattice without these symmetries.  Built once per (profile, top), read-only.
    """
    sizes = np.array([top >> 3, top >> 2, top >> 1, top])
    logs, counts, bounds = [], [], [0]
    for m in sizes.tolist():
        rows = _log_profile_rows(p, m)
        mean = rows + rows.T  # then in place: each large temporary costs page faults
        mean += rows[::-1, ::-1]
        mean += rows.T[::-1, ::-1]
        mean /= 4.0
        spread = float(np.max(np.abs(np.subtract(rows, mean, out=rows), out=rows)))
        if not spread <= _ORBIT_TOL:  # nan included
            raise ValueError(f"log P is not symmetric on the {m} x {m} rhombus grid (a value is "
                             f"{spread:.3g} from its orbit mean): not an equilateral-lattice profile")
        tri = np.tri(m, dtype=bool)  # j <= i
        rep, eye = tri.T & tri[::-1], np.eye(m, dtype=bool)  # i <= j and i + j <= m - 1
        logs.append(mean[rep])  # row-major
        counts.append(4.0 / ((1.0 + eye[rep]) * (1.0 + eye[::-1][rep])))  # halved per diagonal
        bounds.append(bounds[-1] + counts[-1].size)
    logs, counts, bounds = np.concatenate(logs), np.concatenate(counts), np.array(bounds)
    for a in (logs, counts, bounds, sizes):
        a.setflags(write=False)
    return logs, counts, bounds, sizes, float(np.max(np.abs(logs)))


def _ladder_means(p: TriangularProfile, beta: float, top: int) -> list[list[float]]:
    """Midpoint means of P^beta and of P^(2 beta) on the _log_profile_ladder levels, coarsest
    first: one exponential per orbit, its square as the second row, both weighted by the orbit
    sizes (1, 2 or 4, so exactly), and one pairwise sum per level and row (np.add.reduceat),
    divided by m^2."""
    logs, counts, bounds, sizes, reach = _log_profile_ladder(p, top)
    # np.errstate took about a tenth of a warm request, so only a beta past _SAFE_LOG enters
    # it; an overflow there leaves an inf mean, on which planar_lattice_density raises.
    quiet = np.errstate(over="ignore") if beta * reach > _SAFE_LOG else contextlib.nullcontext()
    vals = np.empty((2, logs.size))
    with quiet:
        np.exp(np.multiply(logs, beta, out=vals[0]), out=vals[0])
        np.square(vals[0], out=vals[1])
        vals *= counts
        means = np.add.reduceat(vals, bounds[:-1], axis=1)
    means /= np.square(sizes)
    return means.tolist()


def _halving_richardson(values, powers) -> tuple[float, float]:
    """Limit c0 of values[i] = c0 + sum_k c_k (h / 2^i)^powers[k] + ..., coarsest h first, and
    c0 - c0', c0' being the limit without the finest value and the last power.  The classical
    Richardson table on halving steps (Richardson 1927; Brezinski and Redivo Zaglia 1991,
    ch. 2): the power p turns neighbours a, b into b + (b - a) / (2^p - 1).  With no powers
    the finest value is the limit and the next one c0'."""
    row, coarser = list(values), values[-2]
    for k, p in enumerate(powers):  # row[k + 1:] holds the table's column k + 1
        coarser, d = row[-2], 2.0**p - 1.0
        for i in range(len(row) - 1, k, -1):
            row[i] += (row[i] - row[i - 1]) / d
    return row[-1], row[-1] - coarser


def planar_lattice_density(
    beta: float,
    grid_m: int,
    profile: TriangularProfile | None = None,
) -> DiscrepancyReport:
    """Discrepancy density of the lattice profile at exponent beta.

    Each moment, the mean of P^e over the rhombus (e = beta, 2 beta), is extrapolated from
    midpoint means on the (s, t) |-> 2*omega1*s + 2*omega2*t grids top/8, top/4, top/2 and
    top, with top = grid_m rounded up to a multiple of 8 and capped at 128 (grids 121 and up
    share the cached 128 ladder).  Both come from one exponential per symmetry orbit of the
    grid, P^(2 beta) being the square of P^beta.  P^e behaves like |z - z0|^e at the lattice
    zeros, so the midpoint error on the periodic rhombus is a series in h^{2+e+2k} (Navot 1962,
    Lyness 1976), whose first three terms the Richardson table on the halving levels removes.
    For an even integer e those terms vanish and the mean converges spectrally; from e = 51 on,
    halving h shrinks them below rounding.  Neither case is fit.  The error estimate is the
    change in rho when the finest level is dropped, at least 4 ulps of 1 (rho cancels).
    """
    _check_positive(beta=beta)
    _check_counts(16, _MAX_GRID, grid_m=grid_m)
    p = profile if profile is not None else _default_profile()
    top = min(8 * math.ceil(grid_m / 8), _LADDER_TOP)
    moments = []
    for e, means in zip((beta, 2.0 * beta), _ladder_means(p, beta, top)):
        if min(means) < _TINY:  # a subnormal or zero mean has lost its digits
            raise ArithmeticError(f"mean of P^{e:g} underflows ({min(means):.3g}) at beta = {beta:g}")
        if not math.isfinite(max(means)):
            raise OverflowError(f"mean of P^{e:g} overflows double precision at beta = {beta:g}")
        powers = (e + 2.0, e + 4.0, e + 6.0) if e % 2.0 != 0.0 and e < 51.0 else ()
        moments.append(_halving_richardson(means, powers))
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
