"""Spherical logarithmic-monopole packing: partition functions, closed forms, flow.

Points live as unit 3-vectors.  The monopole potential between p and q is
log(||p - q|| / 2), chart-free and symmetric.  With the sphere's area
normalized to 1, the marginal partition function of a configuration is

    Z_gamma = int exp(gamma * sum_j U(x, p_j)) dA(x),

and the amplitude-optimized discrepancy at exponent beta is
1 - Z_beta^2 / Z_{2 beta}.  Equilibria are detected through the tangential
moment identity E^beta[g_j] = E^{2 beta}[g_j], where g_j is the tangential
part at p_j of (p_j - x)/||p_j - x||^2, and searched for by gradient ascent
of log(Z_beta^2 / Z_{2 beta}).

Quadrature is Gauss-Legendre in cos(theta) times a uniform azimuthal grid.
By default the grid lives in a frame anchored to the configuration (first
point at the pole, second point's azimuth fixing the frame): the grid's
discrete symmetries then make axisymmetric configurations exact critical
points, and all reported quantities become rotation-invariant to roundoff.
A "world" frame mode keeps the grid configuration-independent, which is the
mode where the analytic gradient is exactly the gradient of the discrete
objective (used by the finite-difference check).

The grid is rings times uniform azimuths, and a pass over it works on that
structure: squared half-chords q = d^2 / 4 come from per-ring and per-azimuth
factors (one multiply and one subtract per node and point), the weight
e^{beta sum_j U} = (prod_j q_j)^{beta / 2} takes one scalar power per node and
the 2 beta weight is its square, and moments take one reciprocal 1/q per node
and point and sum e / q over each ring's azimuths, plain and against cos phi and
sin phi.  Passes take whole rings, about _NODE_BLOCK node-point elements at a
time, into per-ring sums; the ring weights and the ring factors rho and z enter
once per ring sum.  Every sum runs in a fixed order without BLAS and none crosses
a block, so no result depends on the thread count or the block size: Z-only
passes serve partition_function and discrepancy, moment passes the residual and
the flow.  The grid keeps only its factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import (
    _MAX_ITERS, RngStream, _check_counts, _check_nonnegative, _check_positive, gauss_legendre,
)
from .reports import DiscrepancyReport

_MIN_PAIR_DIST = 1e-9
_MAX_GRID_ELEMENTS = 1 << 23  # node x point work bound of one pass: n <= 64 on the default grid
_PAIR_BLOCK = 1 << 16  # point pairs per block of _min_pair_distance: 1.5 MB of differences
_NODE_BLOCK = 1 << 17  # node x point elements per block of whole rings (n read as >= 8): 1 MB per array
_POWER_GROUP = 8  # points per factor of a weight whose product underflows (see _node_blocks for the bound)
_ASCENT_SLACK = 1e-15  # relative slack of the flow's ascent and stall tests
_STALL_STEPS = 5  # accepted flow steps in a row that leave the best objective where it was
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


class StepCollapseError(ArithmeticError):
    """Two flow points merged below the supported pairwise distance."""


def _min_pair_distance(pts: np.ndarray) -> float:
    """Smallest chordal distance between two rows of pts (inf below two rows).

    Rows go in blocks of about _PAIR_BLOCK pairs (at least one row), each
    compared with itself and the rows after it, so no (n, n, 3) array is
    built.  The distances come from differences, not from 2 - 2 p.q, which
    cancels near the _MIN_PAIR_DIST threshold.
    """
    n = pts.shape[0]
    if n < 2:
        return math.inf
    rows = max(1, _PAIR_BLOCK // n)
    best = math.inf
    for lo in range(0, n - 1, rows):
        d2 = np.sum((pts[lo:lo + rows, None, :] - pts[None, lo:, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        best = min(best, float(d2.min()))
    return math.sqrt(best)


@dataclass(frozen=True)
class SphereConfiguration:
    """n pairwise-distinct unit vectors on the 2-sphere."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        norms = np.linalg.norm(pts, axis=1)
        if pts.shape[0] and not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise ValueError("all points must be unit vectors (within 1e-12)")
        dmin = _min_pair_distance(pts)
        if dmin < _MIN_PAIR_DIST:
            raise ValueError(f"points must be pairwise distinct (min chordal distance {dmin:.2e})")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def random_configuration(n: int, rng: RngStream) -> SphereConfiguration:
    """n independent uniform points (normalized Gaussians) on the sphere."""
    _check_counts(1, None, n=n)
    g = rng.generator()
    pts = g.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphereConfiguration(points=pts)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the unit sphere with total weight 1.

    Node (i, k) sits on ring i at azimuth k: (rho_i cos phi_k, rho_i sin phi_k, z_i), with z_i
    the Gauss-Legendre nodes in cos(theta), rho_i = sin(theta_i), phi_k = 2 pi k / n_azimuthal
    and weight ring_weights[i].  The grid keeps only these ring and azimuth factors, which is
    all a pass reads.  frame="anchored" re-expresses the grid in configuration coordinates at
    every evaluation; frame="world" keeps it fixed in space.
    """

    n_polar: int = 256
    n_azimuthal: int = 512
    frame: str = "anchored"

    ring_z: np.ndarray = field(init=False, repr=False, compare=False)
    ring_rho: np.ndarray = field(init=False, repr=False, compare=False)
    ring_weights: np.ndarray = field(init=False, repr=False, compare=False)
    cos_phi: np.ndarray = field(init=False, repr=False, compare=False)
    sin_phi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_counts(2, None, n_polar=self.n_polar, n_azimuthal=self.n_azimuthal)
        if self.frame not in ("anchored", "world"):
            raise ValueError(f"frame must be 'anchored' or 'world', got {self.frame!r}")
        rule = gauss_legendre(self.n_polar, -1.0, 1.0)
        phi = 2.0 * math.pi * np.arange(self.n_azimuthal) / self.n_azimuthal
        for name, value in (
            ("ring_z", rule.nodes),
            ("ring_rho", np.sqrt(np.clip(1.0 - rule.nodes * rule.nodes, 0.0, None))),
            ("ring_weights", rule.weights / (2.0 * self.n_azimuthal)),
            ("cos_phi", np.cos(phi)),
            ("sin_phi", np.sin(phi)),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def check_points(self, n: int) -> None:
        """Raise ValueError if n points make a pass over the grid exceed the node x point budget."""
        elements = self.n_polar * self.n_azimuthal * n
        if elements > _MAX_GRID_ELEMENTS:
            raise ValueError(
                f"{n} points on the {self.n_polar} x {self.n_azimuthal} sphere grid need {elements} "
                f"node-point elements, above the budget of {_MAX_GRID_ELEMENTS}"
            )

    @cached_property
    def half_resolution(self) -> "SphereQuadrature":
        """The grid with half the rings and half the azimuths (at least 2 each), built once."""
        return SphereQuadrature(
            n_polar=max(self.n_polar // 2, 2),
            n_azimuthal=max(self.n_azimuthal // 2, 2),
            frame=self.frame,
        )


def _anchor_matrix(pts: np.ndarray) -> np.ndarray:
    """Rows are the anchored basis (e1, e2, e3): e3 = p1, azimuth from p2."""
    e3 = pts[0]
    cand = None
    if pts.shape[0] >= 2:
        c = pts[1] - np.dot(pts[1], e3) * e3
        if np.linalg.norm(c) >= 1e-8:
            cand = c
    if cand is None:
        a = np.zeros(3)
        a[int(np.argmin(np.abs(e3)))] = 1.0
        cand = a - np.dot(a, e3) * e3
    e1 = cand / np.linalg.norm(cand)
    e2 = np.cross(e3, e1)
    return np.vstack([e1, e2, e3])


def _frame_points(config: SphereConfiguration, quad: SphereQuadrature):
    """Configuration in grid coordinates plus the rotation taking them back."""
    quad.check_points(config.n)
    pts = config.points
    if quad.frame == "anchored" and pts.shape[0] >= 1:
        R = _anchor_matrix(pts)
        return pts @ R.T, R
    return pts, np.eye(3)


def _node_blocks(pts_f: np.ndarray, quad: SphereQuadrature, beta: float):
    """Yield (ring slice, q, e, scratch) for each block of whole rings, about _NODE_BLOCK elements.

    q holds the (n, block) squared half-chords q = d^2 / 4 = (1 - p.x) / 2, node by node within each
    ring.  With the point p_j = (x_j, y_j, z_j) and the node x on ring i at azimuth k,

        q = A_ij - rho_i C_jk,  A_ij = (1 - z_i z_j) / 2,  C_jk = (x_j cos phi_k + y_j sin phi_k) / 2,

    then negative roundoff raised to 0.  Row 0 of the (2, block) array e is the weight
    (prod_j q_j)^{beta / 2} without the ring weight, row 1 its square, the 2 beta weight.  A q is at
    most 1 up to an ulp.  Where the product leaves the normal range (some q = 0, or points crowd
    about the node) the power is taken over _POWER_GROUP points at a time and the groups multiply.
    No group product underflows: a nonzero q, the difference of A_ij and rho_i C_jk, is at least
    half an ulp of A_ij >= (1 - |z_1|) / 2, z_1 on the polar ring, about 1.7e-21 on the default
    grid, so a product of 8 factors is at least about 1e-166.  So a weight is 0 only where some
    q = 0 or the true weight underflows; in a block with such nodes q is then raised to the
    smallest normal float, so 1/q stays finite.  q, e and the free scratch are reused by the next block.
    """
    n, n_az = pts_f.shape[0], quad.n_azimuthal
    rings = min(max(1, _NODE_BLOCK // (max(n, 8) * n_az)), quad.n_polar)
    A = 0.5 - 0.5 * np.multiply.outer(pts_f[:, 2], quad.ring_z)
    C = 0.5 * (np.multiply.outer(pts_f[:, 0], quad.cos_phi)
               + np.multiply.outer(pts_f[:, 1], quad.sin_phi))
    b = 0.5 * beta
    buffers = np.empty((2 * n + 2) * rings * n_az)
    for lo in range(0, quad.n_polar, rings):
        ring = slice(lo, min(lo + rings, quad.n_polar))
        block = buffers[:(2 * n + 2) * (ring.stop - lo) * n_az].reshape(2 * n + 2, -1)
        q, scratch, e = block[:n], block[n:2 * n], block[2 * n:]
        grid = q.reshape(n, -1, n_az)
        np.einsum("i,jk->jik", quad.ring_rho[ring], C, out=grid)  # rho_i C_jk, faster than broadcasting
        np.maximum(np.subtract(A[:, ring, None], grid, out=grid), 0.0, out=grid)
        power = np.multiply.reduce(q, axis=0, out=e[0])
        if b * _EPS > 1.0:  # a q that rounds above 1 would overflow its power
            np.minimum(power, 1.0, out=power)
        low = power < _TINY
        power **= b  # in place, numpy's scalar power: a sqrt at beta = 1, nothing at beta = 2
        if low.any():
            power[low] = np.prod([np.multiply.reduce(q[j:j + _POWER_GROUP, low]) ** b
                                  for j in range(0, n, _POWER_GROUP)], axis=0)
            np.maximum(q, _TINY, out=q)
        np.multiply(power, power, out=e[1])
        yield ring, q, e, scratch


def _z_total(ring_sums: np.ndarray, quad: SphereQuadrature, beta: float) -> list:
    """[Z_beta, Z_{2 beta}] from the per-ring sums of e; Z = 0 is a numeric failure."""
    Z = (ring_sums * quad.ring_weights).sum(axis=1)
    if not np.all(Z > 0.0):
        raise ArithmeticError(f"Z underflows to 0 at gamma in {[beta, 2 * beta]}: every weight is 0")
    return Z.tolist()


def _z_values(config: SphereConfiguration, beta: float, quad: SphereQuadrature) -> list:
    """[Z_beta, Z_{2 beta}] from one pass over the node blocks ([1, 1] for an empty configuration)."""
    if config.n == 0:
        return [1.0, 1.0]
    pts_f, _ = _frame_points(config, quad)
    ring_sums = np.empty((2, quad.n_polar))
    for ring, _, e, _ in _node_blocks(pts_f, quad, beta):
        e.reshape(2, -1, quad.n_azimuthal).sum(axis=2, out=ring_sums[:, ring])
    return _z_total(ring_sums, quad, beta)


def partition_function(config: SphereConfiguration, gamma: float, quad: SphereQuadrature) -> float:
    """Quadrature value of Z_gamma for the configuration (1 for an empty one)."""
    _check_positive(gamma=gamma)
    return _z_values(config, gamma, quad)[0]


def _moments(config: SphereConfiguration, beta: float, quad: SphereQuadrature):
    """For gamma = beta and 2 beta: (Z_gamma, E^gamma[g_j] rows in world coordinates).

    One pass over the node blocks serves both, and its Z values are bit for bit those of
    _z_values.  g_j is the tangential component at p_j of (p_j - x) / d^2, d = ||p_j - x||, and 0
    at x = p_j.  On the unit sphere the radial component of that vector is exactly 1/2 whenever
    d > 0, so g_j = (p_j - x) / d^2 - p_j / 2.  For gamma > 0 the weight w e_gamma vanishes
    wherever some d = 0, so the p_j / 2 term averages to itself and

        E^gamma[g_j] = (a_j p_j - A_j) / Z_gamma - p_j / 2,
        a_j = sum w e / d^2,  A_j = sum w e x / d^2,

    sums over the nodes with 1/d^2 read as 0 where d = 0.  Each block replaces q = d^2 / 4 by 1/q
    in place (finite where d = 0, and e = 0 there).  With u = e / q at point j, ring i and azimuth
    k, each ring's azimuths sum first (pairwise, and against cos phi_k and sin phi_k), and the ring
    weights w_i enter once per ring sum:

        a_j = sum_i w_i S_ji / 4,  A_j = sum_i w_i (rho_i Sc_ji, rho_i Ss_ji, z_i S_ji) / 4,
        S_ji = sum_k u_jik,  Sc_ji = sum_k u_jik cos phi_k,  Ss_ji = sum_k u_jik sin phi_k.

    The small components of E[g_j] are differences of terms up to max_j a_j / Z, so their error is
    stated against that scale: against the same q and every later operation in long double, each
    component is within 4 eps max_j a_j / Z (float64 eps).
    """
    pts_f, R = _frame_points(config, quad)
    n, n_az = config.n, quad.n_azimuthal
    ring_sums = np.empty((2, quad.n_polar))
    S = np.empty((2, 3, n, quad.n_polar))  # S, Sc and Ss by point and ring, for each gamma
    for ring, q, e, scratch in _node_blocks(pts_f, quad, beta):
        e.reshape(2, -1, n_az).sum(axis=2, out=ring_sums[:, ring])
        inv = np.divide(1.0, q, out=q).reshape(n, -1, n_az)
        u = scratch.reshape(n, -1, n_az)
        for e_gamma, (S0, Sc, Ss) in zip(e, S):
            np.multiply(e_gamma.reshape(-1, n_az), inv, out=u)  # e / q by point, ring and azimuth
            u.sum(axis=2, out=S0[:, ring])
            np.einsum("jik,k->ji", u, quad.cos_phi, out=Sc[:, ring])
            np.einsum("jik,k->ji", u, quad.sin_phi, out=Ss[:, ring])
    w = quad.ring_weights
    factors = np.stack([w, w * quad.ring_rho, w * quad.ring_rho, w * quad.ring_z])[:, None]
    sums = 0.25 * (S[:, [0, 1, 2, 0]] * factors).sum(axis=3)  # a_j, then A_j by coordinate
    return [(Z, ((a[:, None] * pts_f - np.column_stack(A)) / Z - 0.5 * pts_f) @ R)
            for Z, (a, *A) in zip(_z_total(ring_sums, quad, beta), sums)]


def equilibrium_residual(config: SphereConfiguration, beta: float, quad: SphereQuadrature) -> float:
    """max_j || E^beta[g_j] - E^{2 beta}[g_j] ||; zero exactly at equilibria."""
    _check_positive(beta=beta)
    if config.n < 1:
        raise ValueError("configuration must have at least one point")
    (_, g1), (_, g2) = _moments(config, beta, quad)
    return float(np.max(np.linalg.norm(g1 - g2, axis=1)))


def discrepancy(config: SphereConfiguration, beta: float, quad: SphereQuadrature) -> DiscrepancyReport:
    """Amplitude-optimized discrepancy 1 - Z_beta^2 / Z_{2 beta} at this configuration.

    error_estimate is the change of rho against the half-resolution grid, but at least the rounding
    floor r (|W - 1| + 8 eps), r = Z_beta^2 / Z_{2 beta}: the grid's weights total W (1 + 17 eps on
    the default grid), which scales both Z and r, and the weights and sums round by a few eps more.
    """
    _check_positive(beta=beta)
    zb, z2b = _z_values(config, beta, quad)
    hb, h2b = _z_values(config, beta, quad.half_resolution)
    r, r_half = zb * zb / z2b, hb * hb / h2b
    floor = r * (abs(math.fsum(quad.ring_weights) * quad.n_azimuthal - 1.0) + 8.0 * _EPS) if config.n else 0.0
    return DiscrepancyReport(m1=zb, m2=z2b, error_estimate=max(abs(r - r_half), floor))


def rho1_closed(beta: float) -> float:
    """Closed-form single-point discrepancy beta^2 / (2 + beta)^2."""
    _check_positive(beta=beta)
    return beta * beta / (2.0 + beta) ** 2


def rho2_closed(beta: float) -> float:
    """Closed-form antipodal-pair discrepancy.

    1 - 2^{-4 beta} pi^2 Gamma(2 + 2 beta) / ((1 + beta)^2 Gamma((1+beta)/2)^4),
    valid for 0 < beta <= 30 (gamma range).
    """
    if not (0.0 < beta <= 30.0):
        raise ValueError(f"beta must lie in (0, 30], got {beta}")
    num = 2.0 ** (-4.0 * beta) * math.pi**2 * math.gamma(2.0 + 2.0 * beta)
    den = (1.0 + beta) ** 2 * math.gamma((1.0 + beta) / 2.0) ** 4
    return 1.0 - num / den


def gradient_flow(
    n: int,
    beta: float,
    rng: RngStream | SphereConfiguration,
    step: float = 1.0,
    max_iters: int = 500,
    tol: float = 1e-9,
    quad: SphereQuadrature | None = None,
):
    """Ascend log(Z_beta^2 / Z_{2 beta}) by moving points along the moment gap.

    The ascent direction at p_j is 2*beta*(E^beta[g_j] - E^{2 beta}[g_j]);
    steps are projected back to the sphere, with backtracking halving when
    the objective fails to increase or the step overflows.  Stops when the
    equilibrium residual falls below tol, after max_iters, when no step
    ascends, or when _STALL_STEPS accepted steps in a row fail to raise the
    best objective by more than _ASCENT_SLACK: then it returns the iterate
    with the smallest residual since the stall began.  Returns the final
    configuration and the (iteration, objective, residual) trace up to it.
    tol must be >= 0; at 0 the residual never stops the flow.  Of the
    iterates, only those since best last rose are kept.

    `rng` may be a stream (random start) or a configuration to start from.
    """
    _check_counts(1, None, n=n)
    _check_counts(0, _MAX_ITERS, max_iters=max_iters)
    _check_positive(beta=beta, step=step)
    _check_nonnegative(tol=tol)
    quad = quad if quad is not None else SphereQuadrature()
    quad.check_points(n)
    if isinstance(rng, SphereConfiguration):
        if rng.n != n:
            raise ValueError(f"starting configuration has {rng.n} points, expected {n}")
        config = rng
    else:
        config = random_configuration(n, rng)

    trace: list[tuple[int, float, float]] = []
    cur_step = step
    (zb, g1), (z2b, g2) = _moments(config, beta, quad)
    objective = best = 2.0 * math.log(zb) - math.log(z2b)
    since, iterates = 0, []  # `since`: the iteration that last raised `best`; iterates from it on
    for it in range(max_iters + 1):
        gap = g1 - g2
        residual = float(np.max(np.linalg.norm(gap, axis=1)))
        trace.append((it, objective, residual))
        iterates.append(config)
        if residual < tol or it == max_iters:
            break
        if it - since == _STALL_STEPS:
            k = min(range(since, it + 1), key=lambda i: trace[i][2])
            config = iterates[k - since]
            del trace[k + 1:]
            break
        grad = 2.0 * beta * gap
        for _ in range(60):
            with np.errstate(over="ignore"):
                trial_pts = config.points + cur_step * grad
                norms = np.linalg.norm(trial_pts, axis=1, keepdims=True)
            if not np.all(np.isfinite(norms)):  # the step overflowed
                cur_step *= 0.5
                continue
            trial_pts /= norms
            dmin = _min_pair_distance(trial_pts)
            if dmin < _MIN_PAIR_DIST:
                raise StepCollapseError(f"points merged during flow (distance {dmin:.2e})")
            trial = SphereConfiguration(points=trial_pts)
            (zb, trial_g1), (z2b, trial_g2) = _moments(trial, beta, quad)
            trial_obj = 2.0 * math.log(zb) - math.log(z2b)
            # Absolute slack: near the optimum the true increase per step falls
            # below fp resolution of the objective, and strict ascent would stall
            # while the points are still ~1e-7 rad from the critical point.
            if trial_obj >= objective - _ASCENT_SLACK * max(1.0, abs(objective)):
                config, objective, g1, g2 = trial, trial_obj, trial_g1, trial_g2
                cur_step = min(cur_step * 1.5, step * 4096.0)
                break
            cur_step *= 0.5
        else:
            break  # no step improves the objective any further
        if objective > best + _ASCENT_SLACK * max(1.0, abs(best)):
            best, since = objective, it + 1
            iterates.clear()
    return config, trace
