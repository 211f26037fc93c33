"""Discrepancy densities on the unit disk for truncated power-series candidates.

The central quantity is the normalized mismatch between the weighted modulus
(1-|z|^2)^alpha |f(z)|^beta of a holomorphic candidate f and the constant 1,
averaged against the hyperbolic measure dA/(1-|z|^2) over a disk D(0,r) and
divided by log(1/(1-r^2)).  Every value produced here is an upper-bound
witness: it certifies that the infimum over candidates lies below it, and
nothing more.

The module also covers the tight variant (which charges the candidate's mass
outside D(0,r)), Monte Carlo averages for the Gaussian analytic function with
covariance 1/(1-z w)^2, the half-disk mean-one identity used by the
lower-bound machinery, and pointwise/gradient/dilational inequality checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import (
    RngStream,
    TruncationError,
    _check_counts,
    _check_positive,
    _gaf_mc,
    _polar_values,
    _polynomial_zeros,
    _power_of_two_at_least,
    _term_scales,
    gaf_expected,
    gauss_legendre,
)

DEGREE_CAP = 4096
_DISK_POINTS = 64 * 512  # grid points a disk integral evaluates at a time
_PANEL_NODES = 128  # Gauss-Legendre circles per radial panel of a disk rule
_ZERO_SEARCH_MAX = 128  # highest degree whose zero moduli split the disk rule's panels
_UNIFORM_PANELS = 16  # panels of a disk rule above that degree: 2048 circles
_EDGE_GAP = 1e-9  # least gap between panel edges, as a share of log(1/(1-r^2))
_SETTLED = 1e-13  # relative move of a circle mean below which its angle count stops doubling
_MAX_TRUNCATION = 199_999  # largest disk GAF series degree


@dataclass(frozen=True)
class DiskFunction:
    """Truncated power series sum_k coeffs[k] z^k on the unit disk."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")
        if len(self.coeffs) > DEGREE_CAP + 1:
            raise ValueError(
                f"degree {len(self.coeffs) - 1} exceeds cap {DEGREE_CAP}"
            )
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def values(self, z) -> np.ndarray:
        """Evaluate the series at z (any array shape); polar grids use _circle_means."""
        return np.polyval(self.array()[::-1], np.asarray(z, dtype=complex))

    def derivative(self) -> "DiskFunction":
        if self.degree == 0:
            return DiskFunction(coeffs=(0.0,))
        c = self.array()
        return DiskFunction(coeffs=tuple(c[1:] * np.arange(1, c.size)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def _circle_means(f: DiskFunction, u: np.ndarray, n_angular: int, integrand) -> np.ndarray:
    """integrand(u[:, None], |f|) on the circles |z|^2 = u[i], at most n_angular angles each.

    The integrand takes the means over uniform angles itself and returns them with the circles
    on its last axis.  Each circle starts at the least count of the chain n_angular / 2^k that
    is >= max(16, 2 (degree + 1)), so the top term is not aliased, and doubles while a mean
    moves by more than _SETTLED max(1, |mean|): the periodic trapezoid rule converges
    geometrically on a circle that passes no zero close by (Trefethen and Weideman, SIAM
    Review 56, 2014).  The chain is n_angular alone if n_angular is below that bound or its odd
    part exceeds 3.  For f = z^a h(z^g), |f| depends on g theta alone, g <= degree, and
    doubling n angles refines the rule for it only if g has no more factors of two than n.  A
    start >= 2 (degree + 1) with odd part at most 3 guarantees that; with a cap of 100,
    1 + z^2 would start at 25 angles and settle falsely at 50.  A doubling evaluates only the
    n new angles 2 pi (k + 1/2) / n, as the series twisted by e^{i pi j / n}, and averages
    their mean with the old one, so a circle that reaches the cap has seen all n_angular angles
    of the full grid.  Below the cap the term scales r^j fit one block at every level, so they
    are formed once per call.  Circles go _DISK_POINTS points at a time through buffers
    allocated once per call; the integrand may overwrite the moduli."""
    c = f.array()
    n = n_angular
    if n_angular // (n_angular & -n_angular) <= 3:  # the odd part of n_angular
        while n % 2 == 0 and n // 2 >= max(16, 2 * c.size):
            n //= 2
    zeros, radii = np.zeros(c.size), np.sqrt(u)
    if n < n_angular:  # n >= 2 (degree + 1): one block of term scales, the same at every level
        table = next(_term_scales(zeros, radii, n))
        scales = lambda b: (table[b],)
    else:
        scales = lambda b: _term_scales(zeros, radii[b], n)
    values = np.empty(min(u.size * n_angular, max(_DISK_POINTS, n_angular)), dtype=complex)
    products = np.empty_like(values)
    modulus = np.empty(values.size)

    def level(coeffs, circles):
        rows, means = values.size // n, []
        for i in range(0, circles.size, rows):
            b = circles[i : i + rows]
            out = values[: b.size * n].reshape(b.size, n)
            work = products[: out.size].reshape(out.shape)
            m = modulus[: out.size].reshape(out.shape)
            if b[-1] - b[0] == b.size - 1:  # circles ascend: a run of them is a slice, not a copy
                b = slice(b[0], b[-1] + 1)
            np.abs(_polar_values(coeffs, scales(b), out, work), out=m)
            means.append(integrand(u[b, None], m))
        return np.concatenate(means, axis=-1)

    circles = np.arange(u.size)
    means = level(c, circles)
    while n < n_angular and circles.size:
        roots = np.exp(1j * np.pi / n * np.arange(2 * n))  # e^{i pi j / n} by j mod 2n
        old = means[..., circles]
        new = level(c * roots[np.arange(c.size) % (2 * n)], circles)
        means[..., circles] = mean = 0.5 * (old + new)
        moved = np.abs(mean - old) > _SETTLED * np.maximum(1.0, np.abs(mean))
        circles = circles[moved.reshape(-1, circles.size).any(axis=0)]
        n *= 2
    return means


def weighted_square_mass(f: DiskFunction, radius: float) -> float:
    """Exact integral of |f|^2 (1-|z|^2) dA over D(0, radius), dA = dx dy / pi.

    Angular orthogonality of the monomials reduces the integral to
    sum_k |c_k|^2 (s^{k+1}/(k+1) - s^{k+2}/(k+2)) with s = radius^2,
    which is evaluated in closed form (no quadrature error).  Each moment is
    written s^{k+1} (1 + (k+1)(1-s)) / ((k+1)(k+2)), which does not cancel.
    """
    if not (0.0 < radius <= 1.0):
        raise ValueError(f"radius must lie in (0, 1], got {radius}")
    s = radius * radius
    with np.errstate(over="ignore", invalid="ignore"):  # |c|^2 = inf, or inf * 0: OverflowError
        c2 = np.abs(f.array()) ** 2
        k1 = np.arange(1, len(c2) + 1, dtype=float)
        moments = s**k1 * (1.0 + k1 * (1.0 - s)) / (k1 * (k1 + 1.0))
        return _finite_or_overflow(float(np.sum(c2 * moments)))


# ---------------------------------------------------------------------------
# Quadrature over disks against the hyperbolic measure
# ---------------------------------------------------------------------------

def _check_radius(r: float) -> float:
    """log(1/(1-r^2)), the hyperbolic measure of D(0, r), for a radius r in (0, 1) whose square is
    a normal double (r >= 1.49e-154); ValueError naming r otherwise.

    Every disk integral is normalized by this one value, formed from r * r: below that radius
    r * r is subnormal or zero, its log has lost its digits and the normalization divides by
    rounding or by zero."""
    if not (0.0 < r < 1.0 and r * r >= sys.float_info.min):
        raise ValueError(f"r must lie in (0, 1) with r^2 a normal double, got r={r!r}")
    return -math.log1p(-r * r)


@dataclass(frozen=True)
class _DiskRule:
    """Product rule for integrals over D(0, radius) against dA/(1-|z|^2).

    Radial nodes live in u = |z|^2; the substitution t = -log(1-u) absorbs the 1/(1-u) weight,
    so Gauss-Legendre panels in t integrate smooth radial profiles accurately even as radius -> 1
    where the hyperbolic measure concentrates.  normalization is the span log(1/(1-radius^2)) of t
    the rule was built on (_check_radius), and the weights sum to it up to rounding.  Angular
    nodes are the uniform, equal-weight angles 2 pi k / n, so polynomials on a circle are one FFT;
    n_angular is the cap, and each circle takes n = n_angular / 2^k angles, as few as its mean
    needs (_circle_means).  Only _panel_quadrature and make_disk_quadrature build one, and both
    guarantee positive weights and nodes inside (0, radius^2).
    """

    radius: float
    u_nodes: np.ndarray
    hyperbolic_weights: np.ndarray
    n_angular: int
    normalization: float


def make_disk_quadrature(radius: float, n_radial: int = 2048, n_angular: int = 512) -> _DiskRule:
    """n_radial Gauss-Legendre circles on D(0, radius), each with at most n_angular angles.

    One panel in t over the whole disk, the same for every candidate, with read-only arrays.
    What it returns, passed as quad= to hyperbolic_discrepancy, tight_discrepancy or
    halfdisk_identity_check, overrides the rule they otherwise build for each candidate
    (_panel_quadrature)."""
    span = _check_radius(radius)
    _check_counts(4, None, n_radial=n_radial, n_angular=n_angular)
    rule = gauss_legendre(n_radial, 0.0, span)
    u = -np.expm1(-rule.nodes)
    u.setflags(write=False)
    return _DiskRule(radius=radius, u_nodes=u, hyperbolic_weights=rule.weights, n_angular=n_angular,
                     normalization=span)


def _panel_edges(f: DiskFunction, radius: float) -> np.ndarray:
    """Panel edges in t = -log(1 - |z|^2) on D(0, radius): 0, the t of each distinct zero modulus
    of f in (0, radius), and log(1/(1 - radius^2)).

    Above degree _ZERO_SEARCH_MAX the search costs more than the circles it saves, and the edges
    split the disk into _UNIFORM_PANELS equal panels instead.  Edges closer than _EDGE_GAP of
    the disk's measure to the one before, or to the rim, are dropped.  The last edge is
    _check_radius(radius) itself."""
    total = _check_radius(radius)
    c = f.array()
    terms = np.flatnonzero(c)
    if terms.size < 2:  # no zeros off the origin
        return np.array([0.0, total])
    c = c[terms[0] : terms[-1] + 1]  # zeros at the origin sit on the first edge already
    if c.size - 1 > _ZERO_SEARCH_MAX:
        return np.linspace(0.0, total, _UNIFORM_PANELS + 1)
    moduli = np.abs(_polynomial_zeros(c))
    t = np.sort(-np.log1p(-moduli[moduli < radius] ** 2))
    t = t[np.diff(t, prepend=0.0) > _EDGE_GAP * total]
    return np.concatenate([[0.0], t[t < (1.0 - _EDGE_GAP) * total], [total]])


def _panel_quadrature(f: DiskFunction, radius: float, n_angular: int = 512) -> _DiskRule:
    """The disk rule for f on D(0, radius): _PANEL_NODES Gauss-Legendre circles per panel.

    The mean of |f| over a circle is not smooth in the radius where the circle meets a zero of f,
    so the panels split at the zero moduli (_panel_edges), and the Gauss rule in t = -log(1 - u)
    is accurate on each panel.  Every panel [a, a + h] is graded at both ends,
    t = a + h s^2 (3 - 2 s) with weight h 6 s (1 - s) ds: t - a and a + h - t go as s^2 and
    (1 - s)^2, so a kink of the mean at either edge, at a zero modulus or at u = 0, where the mean
    of |c z^k| is |c| u^(k/2), turns smooth in s (Davis and Rabinowitz, Methods of Numerical
    Integration, ch. 2).  A rule from make_disk_quadrature, passed as quad=, replaces it."""
    edges = _panel_edges(f, radius)
    rule = gauss_legendre(_PANEL_NODES, 0.0, 1.0)
    s, w = rule.nodes, rule.weights
    width = np.diff(edges)[:, None]
    t = edges[:-1, None] + width * (s * s * (3.0 - 2.0 * s))
    weights = width * (w * 6.0 * s * (1.0 - s))
    return _DiskRule(radius=radius, u_nodes=-np.expm1(-t.ravel()), hyperbolic_weights=weights.ravel(),
                     n_angular=n_angular, normalization=float(edges[-1]))


def _disk_rule(f: DiskFunction, radius: float, quad: _DiskRule | None) -> _DiskRule:
    """quad, whose radius must be radius, or if it is None the panel rule for f."""
    if quad is None:
        return _panel_quadrature(f, radius)
    if abs(quad.radius - radius) > 1e-12:
        raise ValueError(
            f"quadrature radius {quad.radius} does not match requested {radius}"
        )
    return quad


# ---------------------------------------------------------------------------
# Discrepancy evaluation
# ---------------------------------------------------------------------------

def _finite_or_overflow(value: float) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"candidate overflows double precision ({value})")
    return value


def hyperbolic_discrepancy(
    f: DiskFunction,
    r: float,
    alpha: float = 1.0,
    beta: float = 1.0,
    quad: _DiskRule | None = None,
) -> float:
    """Normalized mean-square mismatch of (1-|z|^2)^alpha |f|^beta against 1.

    Returns (1/log(1/(1-r^2))) * integral over D(0,r) of
    ((1-|z|^2)^alpha |f(z)|^beta - 1)^2 dA(z)/(1-|z|^2).

    The value is an upper-bound witness for the infimum over candidates at
    the same (alpha, beta); no optimization is performed.

    With quad=None the radial rule is built for f: 128 Gauss-Legendre circles
    per panel in t = -log(1-|z|^2), split at the moduli of the zeros of f in
    D(0,r), each panel graded at both ends (_panel_quadrature).  quad, a rule
    from make_disk_quadrature(r, ...), overrides it.
    """
    _check_radius(r)
    _check_positive(alpha=alpha, beta=beta)
    quad = _disk_rule(f, r, quad)

    def mismatch(u, modulus):  # in the buffer _circle_means lets it overwrite
        modulus **= beta  # in place: keeps numpy's sqrt/square fast paths
        modulus *= (1.0 - u) ** alpha
        modulus -= 1.0
        return np.square(modulus, out=modulus).mean(-1)

    with np.errstate(over="ignore", invalid="ignore"):
        means = _circle_means(f, quad.u_nodes, quad.n_angular, mismatch)
        value = float(quad.hyperbolic_weights @ means) / quad.normalization
    return _finite_or_overflow(value)


def tight_discrepancy(
    f: DiskFunction, r: float, quad: _DiskRule | None = None
) -> float:
    """Variant charging the candidate's weighted mass outside D(0,r) as well.

    Inside D(0,r) the value is hyperbolic_discrepancy(f, r) with
    alpha = beta = 1; on the annulus r <= |z| < 1 the reference constant is
    dropped and the contribution is (1-|z|^2)|f|^2 dA.  Both pieces share the
    log(1/(1-r^2)) normalization, and the annulus is nonnegative, so the
    result always dominates the inner-region value.

    The annulus piece is exact by coefficient orthogonality: with s = r^2,
    q = 1 - s, the moment of |c_k|^2 is the integral of u^k (1-u) du over
    [s, 1], that is q^2 sum_{j<=k} (j+1) s^j / ((k+1)(k+2)), a sum of positive
    terms where weighted_square_mass(f, 1) - weighted_square_mass(f, r) would
    cancel.
    """
    inner = hyperbolic_discrepancy(f, r, quad=quad)
    n = np.arange(1, f.degree + 2, dtype=float)
    moments = ((1.0 - r) * (1.0 + r)) ** 2 * np.cumsum(n * (r * r) ** (n - 1.0)) / (n * (n + 1.0))
    with np.errstate(over="ignore"):  # |c_k| above 1e154: reported below as an OverflowError
        annulus = float(np.sum(np.abs(f.array()) ** 2 * moments))
    return _finite_or_overflow(inner + annulus / _check_radius(r))


# ---------------------------------------------------------------------------
# Gaussian analytic function on the disk
# ---------------------------------------------------------------------------

hyperbolic_gaf_expected = gaf_expected


def hyperbolic_gaf_tail(r: float, N: int) -> float:
    """Variance of the discarded tail of (1-|z|^2) G(z) truncated at degree N.

    Exactly (1-r^2)^2 sum_{j>N} (j+1) r^{2j}
          = r^{2(N+1)} (N + 2 - (N+1) r^2), evaluated at |z| = r.
    """
    _check_radius(r)
    _check_counts(1, None, N=N)
    x = r * r
    return x ** (N + 1) * (N + 2 - (N + 1) * x)


def hyperbolic_gaf_truncation(r: float, tol: float = 1e-6) -> int:
    """Smallest degree N < 200,000 with hyperbolic_gaf_tail(r, N) < tol, by bisection.

    With x = r^2 the tail x^{N+1} (N + 2 - (N+1) x) falls by the factor
    x (1 + (1-x) / (N + 2 - (N+1) x)) < 1 from N to N + 1, so the first N below
    tol is found in at most 19 evaluations.
    """
    _check_positive(tol=tol)
    low, high = 0, _MAX_TRUNCATION  # tail(low) >= tol unless low = 0; tail(high) < tol
    if not hyperbolic_gaf_tail(r, high) < tol:
        raise TruncationError(f"no admissible truncation up to {_MAX_TRUNCATION} for r={r}")
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if hyperbolic_gaf_tail(r, mid) < tol else (mid, high)
    return high


def hyperbolic_gaf_mc(
    r: float,
    b: float,
    truncation_N: int,
    trials: int,
    rng: RngStream,
    threads: int = 1,
    n_radial: int = 8,
    n_angular: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the amplitude-b GAF discrepancy.

    Each trial draws an independent truncated GAF sample from its own
    substream, evaluates the alpha = beta = 1 discrepancy over D(0,r) at
    amplitude b, less the control term of numerics._gaf_mc, and the trials
    are averaged.  The truncation must keep the discarded tail variance
    below 1e-6 at radius r, else TruncationError.

    The radial rule is n_radial Gauss-Legendre nodes in t = -log(1 - |z|^2)
    on [0, log(1/(1 - r^2))].  The field decorrelates over a hyperbolic
    distance of order 1, and t is about twice the distance from 0, so the
    default grid is 8 radii and, for n_angular, the power of two >= the
    hyperbolic length 2 pi r / (1 - r^2) of the circle |z| = r, clamped to
    [16, 128].  Any grid gives an unbiased trial; a finer one only lowers its
    variance.  The exact per-trial variance of this grid over that of 32
    radii by the power of two >= 4 pi r / (1 - r^2), with a quarter to an
    eighth of its points, is (the same for every b: with the control term, a
    trial is b times a functional of the field plus a constant):

        r      0.3 / 0.5   0.8     0.9     0.95    0.99    0.995   0.999
        ratio  1.0000      1.0060  1.0040  1.0024  1.0010  1.0019  1.0073
    """
    _check_counts(1, _MAX_TRUNCATION, truncation_N=truncation_N)
    tail = hyperbolic_gaf_tail(r, truncation_N)  # checks r
    if not (tail < 1e-6):
        raise TruncationError(
            f"truncation_N={truncation_N} leaves tail variance {tail:.2e} >= 1e-6"
        )
    if n_angular is None:
        n_angular = _power_of_two_at_least(2.0 * math.pi * r / ((1.0 - r) * (1.0 + r)), 16, 128)
    _check_counts(4, None, n_radial=n_radial, n_angular=n_angular)
    span = _check_radius(r)
    rule = gauss_legendre(n_radial, 0.0, span)
    u = -np.expm1(-rule.nodes)
    log_scales = 0.5 * np.log(np.arange(1, truncation_N + 2, dtype=float))
    return _gaf_mc(log_scales, np.sqrt(u), rule.weights / span, np.log1p(-u), b, n_angular, trials,
                   rng, threads)


# ---------------------------------------------------------------------------
# Half-disk mean-one identity
# ---------------------------------------------------------------------------

def _modulus_and_weighted_square(u: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """The means over angles of |f| and of (1-u) |f|^2, the second squared in place."""
    mean_modulus = modulus.mean(-1)
    np.square(modulus, out=modulus)
    modulus *= 1.0 - u
    return np.stack((mean_modulus, modulus.mean(-1)))


def halfdisk_identity_check(
    f: DiskFunction, quad: _DiskRule | None = None
) -> tuple[float, float, float]:
    """Check the closed-form value of the best-amplitude mismatch on D(0,1/2).

    After rescaling f so that integral of |f|^2 (1-|z|^2) dA over D(0,1/2)
    equals 1 (done exactly via coefficient orthogonality), the amplitude
    minimizing the mean-square mismatch is b_f = integral of |f| dA, and the
    minimum itself collapses to log(4/3) - b_f^2.  Returns (lhs, rhs,
    |lhs - rhs|) with lhs the quadrature value and rhs the closed form.

    One pass over the grid gives b_f and Q2, the quadrature value of
    integral of (1-|z|^2)|f|^2 dA; expanding the square, lhs =
    b_f^2 (Q2/mass - 2) + log(4/3).  The gap b_f^2 |Q2/mass - 1| compares
    the quadrature with the exact mass, so it measures quadrature error.
    """
    if f.is_zero():
        raise ValueError("candidate must be nonzero")
    quad = _disk_rule(f, 0.5, quad)
    with np.errstate(over="ignore", invalid="ignore"):
        mass = weighted_square_mass(f, 0.5)
        means = _circle_means(f, quad.u_nodes, quad.n_angular, _modulus_and_weighted_square)
    area_weights = quad.hyperbolic_weights * (1.0 - quad.u_nodes)
    b_f = float(area_weights @ means[0]) / math.sqrt(mass)
    q2 = float(area_weights @ means[1])
    lhs = _finite_or_overflow(b_f * b_f * (q2 / mass - 2.0) + quad.normalization)
    rhs = math.log(4.0 / 3.0) - b_f * b_f
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Pointwise, gradient, and dilational inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Worst margins (bound minus value, >= 0 when the inequality holds).

    value_margin / derivative_margin cover the squared pointwise bounds for
    |f|^2 and |f'|^2; gradient_margin covers the bound on
    |grad((1-|z|^2)|f(z)|)|; dilational_margin covers the dilation estimate
    on the area-integral norm.  Margins are minima over the test points.  The
    one verdict, all_ok, holds when no margin is negative; a single
    inequality's verdict is the sign of its margin.
    """

    value_margin: float
    derivative_margin: float
    gradient_margin: float
    dilational_margin: float
    points_checked: int

    @property
    def all_ok(self) -> bool:
        return min(self.value_margin, self.derivative_margin, self.gradient_margin,
                   self.dilational_margin) >= 0.0


def _gradient_magnitude(f: DiskFunction, z, fd: DiskFunction | None = None):
    """Exact |grad((1-|z|^2)|f(z)|)| off the zeros of f, elementwise over z.

    For holomorphic f, grad|f| is the vector (Re, -Im) of conj(f) f' / |f|;
    combining with grad(1-|z|^2) = -2(x, y) gives the two real components in
    closed form.  At a zero of f the map is not differentiable; the crude
    triangle bound 2|z||f| + (1-|z|^2)|f'| is used there instead.  fd, if given, is f'.
    """
    z = np.asarray(z, dtype=complex)
    fv = f.values(z)
    dv = (f.derivative() if fd is None else fd).values(z)
    modulus, weight = np.abs(fv), 1.0 - np.abs(z) ** 2
    at_zero = modulus < 1e-300
    # d|f|/dx + i d|f|/dy = 2 d|f|/dzbar = f conj(f')/|f|, i.e. conj(unit).
    unit = np.conj(fv) * dv / np.where(at_zero, 1.0, modulus)
    gx = -2.0 * z.real * modulus + weight * unit.real
    gy = -2.0 * z.imag * modulus - weight * unit.imag
    return np.where(at_zero, 2.0 * np.abs(z) * modulus + weight * np.abs(dv), np.hypot(gx, gy))[()]


def inequality_suite(
    f: DiskFunction, r: float, test_points
) -> InequalityReport:
    """Verify the pointwise, gradient, and dilational estimates for f.

    At each test point z in D(0,r), with I = integral of |f|^2 (1-|w|^2) dA
    over D(0,r):

      (i)  |f(z)|^2  <= 2 r^4 / (r^2-|z|^2)^3 * I
           |f'(z)|^2 <= 24 r^6 / (r^2-|z|^2)^5 * I
      (ii) |grad((1-|z|^2)|f(z)|)|
           <= (8 + 5(1-r^2)/(r^2-|z|^2)) * r^3/(r^2-|z|^2)^{3/2} * sqrt(I)

    and once per call, for the dilate f_r(w) = f(r w):

      (iii) integral of |f_r| dA over the unit disk
            <= (1/r^2) sqrt(log(1/(1-r^2))) * sqrt(full-disk I)

    A negative margin means a failed inequality, which would be a bug.
    """
    span = _check_radius(r)
    z = np.asarray(list(test_points) if np.iterable(test_points) else test_points, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("need a flat, non-empty sequence of test points")
    outside = np.abs(z) >= r
    if outside.any():
        raise ValueError(f"test point {complex(z[outside][0])} lies outside D(0, {r})")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        mass = weighted_square_mass(f, r)
        fd = f.derivative()
        # In q = gap / r^2, which lies in (0, 1], no power of the gap underflows at a tiny r.
        gap = r * r - np.abs(z) ** 2
        q = gap / (r * r)
        scaled_mass = mass / (r * r)
        value_bound = 2.0 * scaled_mass / q**3
        value_margin = float(np.min(value_bound - np.abs(f.values(z)) ** 2))
        deriv_bound = 24.0 * (scaled_mass / (r * r)) / q**5
        derivative_margin = float(np.min(deriv_bound - np.abs(fd.values(z)) ** 2))
        grad_bound = (8.0 + 5.0 * (1.0 - r * r) / gap) * math.sqrt(mass) / q**1.5
        gradient_margin = float(np.min(grad_bound - _gradient_magnitude(f, z, fd)))

        # Dilational estimate: the area integral of |f(r w)| over the unit disk is
        # 1/r^2 times that of |f| over D(0, r), on the panel rule for f with area
        # weights dA = (1 - u) dA/(1-|z|^2).
        rule = _panel_quadrature(f, r, 256)
        area_weights = rule.hyperbolic_weights * (1.0 - rule.u_nodes)
        dilate_norm = float(area_weights @ _circle_means(f, rule.u_nodes, rule.n_angular,
                                                         lambda u, modulus: modulus.mean(-1))) / (r * r)
        full_mass = weighted_square_mass(f, 1.0)
    dil_bound = math.sqrt(span) / (r * r) * math.sqrt(full_mass)
    dilational_margin = dil_bound - dilate_norm

    return InequalityReport(
        value_margin=_finite_or_overflow(value_margin),
        derivative_margin=_finite_or_overflow(derivative_margin),
        gradient_margin=_finite_or_overflow(gradient_margin),
        dilational_margin=_finite_or_overflow(dilational_margin),
        points_checked=z.size,
    )


def __getattr__(name: str):
    """Resolve the two names of .proof that tests/test_acceptance.py and bench/workloads.py read
    here; importing it only then keeps fractions off the disk path (PEP 562)."""
    if name in ("proof_constants_report", "schafli_solutions"):
        from . import proof

        return getattr(proof, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
