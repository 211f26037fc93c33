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

Passes over the grid take _NODE_BLOCK nodes at a time and sum in a fixed order
without BLAS, so no result depends on the thread count: Z-only passes serve
partition_function and discrepancy, moment passes the residual and the flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream, gauss_legendre
from .reports import DiscrepancyReport, make_report

_MIN_PAIR_DIST = 1e-9
_MAX_GRID_ELEMENTS = 1 << 23  # node x point work bound of one pass: n <= 64 on the default grid
_PAIR_BLOCK = 1 << 16  # point pairs per block of _min_pair_distance: 1.5 MB of differences
_NODE_BLOCK = 8192  # nodes per block of a pass over the grid: 4 MB per (n, block) array at n = 64
_ASCENT_SLACK = 1e-15  # relative slack of the flow's ascent and stall tests
_STALL_STEPS = 5  # accepted flow steps in a row that leave the best objective where it was


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
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.generator()
    pts = g.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphereConfiguration(points=pts)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the unit sphere with total weight 1.

    frame="anchored" re-expresses the grid in configuration coordinates at
    every evaluation; frame="world" keeps it fixed in space.
    """

    n_polar: int = 256
    n_azimuthal: int = 512
    frame: str = "anchored"

    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_polar < 2 or self.n_azimuthal < 2:
            raise ValueError("need at least 2 nodes in each direction")
        if self.frame not in ("anchored", "world"):
            raise ValueError(f"frame must be 'anchored' or 'world', got {self.frame!r}")
        rule = gauss_legendre(self.n_polar, -1.0, 1.0)
        x = rule.nodes
        sin_t = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        phi = 2.0 * math.pi * np.arange(self.n_azimuthal) / self.n_azimuthal
        nodes = np.empty((3, self.n_polar * self.n_azimuthal)).T  # each coordinate contiguous
        nodes[:, 0] = np.outer(sin_t, np.cos(phi)).ravel()
        nodes[:, 1] = np.outer(sin_t, np.sin(phi)).ravel()
        nodes[:, 2] = np.repeat(x, self.n_azimuthal)
        weights = np.repeat(rule.weights / (2.0 * self.n_azimuthal), self.n_azimuthal)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def check_points(self, n: int) -> None:
        """Raise ValueError if n points make a pass over the grid exceed the node x point budget."""
        elements = self.n_polar * self.n_azimuthal * n
        if elements > _MAX_GRID_ELEMENTS:
            raise ValueError(
                f"{n} points on the {self.n_polar} x {self.n_azimuthal} sphere grid need {elements} "
                f"node-point elements, above the budget of {_MAX_GRID_ELEMENTS}"
            )

    def half_resolution(self) -> "SphereQuadrature":
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


def _node_blocks(pts_f: np.ndarray, quad: SphereQuadrature, gammas):
    """Yield (node slice, d2, s, w, scratch) for each block of _NODE_BLOCK quadrature nodes.

    d2 holds the (n, block) squared distances 2 - 2 p.x, p.x summed term by term
    over the node coordinate rows (no BLAS, so no thread-dependent rounding).
    s = sum_j log(d_j / 2) sums over the points in order; row i of w is
    weights * e^{gamma_i s}, and as s <= 0, gamma s overflowing to -inf means 0.
    d2 and the free (n, block) scratch array are reused by the next block.
    """
    q = -2.0 * pts_f
    offset = pts_f.shape[0] * math.log(2.0)
    buffers = np.empty((2, pts_f.shape[0], min(_NODE_BLOCK, quad.weights.shape[0])))
    for lo in range(0, quad.weights.shape[0], _NODE_BLOCK):
        nodes = slice(lo, lo + _NODE_BLOCK)
        x = quad.nodes[nodes].T
        d2, scratch = buffers[:, :, :x.shape[1]]
        np.multiply(q[:, :1], x[0], out=d2)
        for k in (1, 2):
            d2 += np.multiply(q[:, k:k + 1], x[k], out=scratch)
        np.clip(np.add(d2, 2.0, out=d2), 0.0, 4.0, out=d2)
        with np.errstate(divide="ignore", over="ignore"):
            s = 0.5 * np.log(d2, out=scratch).sum(axis=0) - offset
            w = quad.weights[nodes] * np.exp(np.multiply.outer(gammas, s))
        yield nodes, d2, s, w, scratch


def _tree_sum(parts: list):
    """Add arrays pairwise as a balanced tree: over 2^k equal node blocks this is
    numpy's pairwise sum over all the nodes, which halves at the same boundaries."""
    while len(parts) > 1:
        parts = [sum(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    return parts[0]


def _z_total(parts: list, gammas) -> list:
    """Z_gamma for each gamma from its node-block sums; Z = 0 is a numeric failure."""
    Z = _tree_sum(parts)
    if not np.all(Z > 0.0):
        raise ArithmeticError(f"Z underflows to 0 at gamma in {list(gammas)}: e^(gamma s) is 0 at every node")
    return Z.tolist()


def _z_values(config: SphereConfiguration, gammas, quad: SphereQuadrature) -> list:
    """Z_gamma for each gamma from one pass over the node blocks (1 for an empty configuration)."""
    if config.n == 0:
        return [1.0] * len(gammas)
    pts_f, _ = _frame_points(config, quad)
    return _z_total([w.sum(axis=1) for _, _, _, w, _ in _node_blocks(pts_f, quad, gammas)], gammas)


def partition_function(config: SphereConfiguration, gamma: float, quad: SphereQuadrature) -> float:
    """Quadrature value of Z_gamma for the configuration (1 for an empty one)."""
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _z_values(config, (gamma,), quad)[0]


def _moments(config: SphereConfiguration, gammas, quad: SphereQuadrature):
    """For each gamma: (Z_gamma, E^gamma[g_j] rows in world coordinates).

    One pass over the node blocks serves every gamma, and its Z values are
    bit for bit those of _z_values.  g_j is the tangential component at p_j
    of (p_j - x) / d^2, d = ||p_j - x||, and 0 at x = p_j.
    On the unit sphere the radial component of that vector is exactly 1/2
    whenever d > 0, so g_j = (p_j - x) / d^2 - p_j / 2.  For gamma > 0 the
    weight w = weights * e^{gamma s} vanishes wherever some d = 0 (s = -inf
    there), so the p_j / 2 term averages to itself and

        E^gamma[g_j] = (a_j p_j - A_j) / Z_gamma - p_j / 2,
        a_j = sum w / d^2,  A_j = sum w x / d^2,

    sums over the nodes with 1/d^2 read as 0 where d = 0.
    """
    pts_f, R = _frame_points(config, quad)
    z_parts, sum_parts = [], []
    for nodes, d2, _, w, scratch in _node_blocks(pts_f, quad, gammas):
        np.maximum(d2, np.finfo(float).tiny, out=d2)  # w = 0 where d = 0, so w / d^2 reads 0 there
        part = np.empty((len(gammas), 4, config.n))  # a_j, then A_j by coordinate
        for i, w_gamma in enumerate(w):
            for k, wx in enumerate((w_gamma, *(w_gamma * quad.nodes[nodes].T))):
                np.divide(wx, d2, out=scratch).sum(axis=1, out=part[i, k])
        z_parts.append(w.sum(axis=1))
        sum_parts.append(part)
    return [(Z, ((a[:, None] * pts_f - np.column_stack(A)) / Z - 0.5 * pts_f) @ R)
            for Z, (a, *A) in zip(_z_total(z_parts, gammas), _tree_sum(sum_parts))]


def equilibrium_residual(config: SphereConfiguration, beta: float, quad: SphereQuadrature) -> float:
    """max_j || E^beta[g_j] - E^{2 beta}[g_j] ||; zero exactly at equilibria."""
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    if config.n < 1:
        raise ValueError("configuration must have at least one point")
    (_, g1), (_, g2) = _moments(config, (beta, 2.0 * beta), quad)
    return float(np.max(np.linalg.norm(g1 - g2, axis=1)))


def discrepancy(config: SphereConfiguration, beta: float, quad: SphereQuadrature) -> DiscrepancyReport:
    """Amplitude-optimized discrepancy 1 - Z_beta^2 / Z_{2 beta} at this configuration."""
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    zb, z2b = _z_values(config, (beta, 2.0 * beta), quad)
    hb, h2b = _z_values(config, (beta, 2.0 * beta), quad.half_resolution())
    rho_half = 1.0 - hb * hb / h2b
    return make_report(m1=zb, m2=z2b, error_estimate=abs((1.0 - zb * zb / z2b) - rho_half))


def rho1_closed(beta: float) -> float:
    """Closed-form single-point discrepancy beta^2 / (2 + beta)^2."""
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
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

    `rng` may be a stream (random start) or a configuration to start from.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
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
    (zb, g1), (z2b, g2) = _moments(config, (beta, 2.0 * beta), quad)
    objective = best = 2.0 * math.log(zb) - math.log(z2b)
    since, iterates = 0, []  # `since`: the iteration that last raised `best`
    for it in range(max_iters + 1):
        gap = g1 - g2
        residual = float(np.max(np.linalg.norm(gap, axis=1)))
        trace.append((it, objective, residual))
        iterates.append(config)
        if residual < tol or it == max_iters:
            break
        if it - since == _STALL_STEPS:
            k = min(range(since, it + 1), key=lambda i: trace[i][2])
            config = iterates[k]
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
            (zb, trial_g1), (z2b, trial_g2) = _moments(trial, (beta, 2.0 * beta), quad)
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
    return config, trace
