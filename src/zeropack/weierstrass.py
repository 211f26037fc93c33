"""Weierstrass sigma and zeta functions for a general oriented lattice.

The lattice is 2*omega1*Z + 2*omega2*Z given by its half-periods.  Evaluation
goes through the first Jacobi theta function's q-series:

    sigma(z) = 2 omega1 exp(eta1 z^2 / (2 omega1)) theta1(v) / (pi theta1'(0)),
    zeta(z)  = eta1 z / omega1 + (pi / (2 omega1)) theta1'(v) / theta1(v),

with v = pi z / (2 omega1), nome q = exp(i pi tau), tau = omega2/omega1, and
eta1 = -pi^2 theta1'''(0) / (12 omega1 theta1'(0)).  The common q^{1/4} factor
cancels in every ratio used, so the series below drop it.

For the lattices of interest (|q| well below 1/2) a handful of terms reach
machine precision.  Arguments near the fundamental cell are evaluated
directly; far arguments are reduced cell-by-cell with the quasi-period
factor accumulated in log space, which keeps the modulus representable even
where sigma itself would overflow.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_MAX_ABS_NOME = 0.45
_DIRECT_WINDOW = (-1.0, 2.0)  # (s, t) box evaluated without reduction


class DegenerateLatticeError(ValueError):
    """Half-periods do not span an oriented lattice usable by the series."""


class LatticePoleError(ValueError):
    """zeta evaluated at a lattice point (a pole)."""


@dataclass(frozen=True)
class Lattice:
    """Half-periods omega1, omega2 with Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        if self.omega1 == 0:
            raise DegenerateLatticeError("omega1 must be nonzero")
        if (self.omega2 / self.omega1).imag <= 0.0:
            raise DegenerateLatticeError(
                f"need Im(omega2/omega1) > 0, got {(self.omega2 / self.omega1).imag}"
            )


@dataclass(frozen=True)
class WeierstrassContext:
    """Precomputed quasi-period data for one lattice.

    Immutable after construction; all evaluations are pure and thread-safe.
    """

    lattice: Lattice
    tau: complex
    nome: complex
    eta1: complex
    eta2: complex
    nterms: int
    t1p0: complex        # theta1'(0) with the q^{1/4} factor dropped
    cell_inv: tuple      # row-major inverse of [[Re 2w1, Re 2w2], [Im 2w1, Im 2w2]]

    @property
    def omega1(self) -> complex:
        return self.lattice.omega1

    @property
    def omega2(self) -> complex:
        return self.lattice.omega2


def _series_coefficients(q: complex, nterms: int) -> list:
    """theta1 series coefficients (-1)^n q^{n(n+1)}, n < nterms, with q^{n(n+1)} built by products."""
    coefs = []
    q2 = q * q
    r = complex(1.0)       # q^{2n}
    qn = complex(1.0)      # q^{n(n+1)}
    sign = 1.0
    for n in range(nterms):
        if n > 0:
            r *= q2
            qn *= r
            sign = -sign
        coefs.append(sign * qn)
    return coefs


def _theta_series(v, q: complex, nterms: int):
    """Return (t1, t1p) = (theta1(v), d/dv theta1(v)), both missing 2*q^{1/4}.

    Uses the angle-addition recurrence for sin/cos((2n+1)v) so only four
    transcendental arrays are formed regardless of the term count.
    """
    s1 = np.sin(v)
    c1 = np.cos(v)
    s2 = 2.0 * s1 * c1
    c2 = 1.0 - 2.0 * s1 * s1
    sk, ck = s1, c1
    t1 = s1.copy() if isinstance(s1, np.ndarray) else s1
    t1p = c1.copy() if isinstance(c1, np.ndarray) else c1
    for n, coef in enumerate(_series_coefficients(q, nterms)[1:], start=1):
        sk, ck = sk * c2 + ck * s2, ck * c2 - sk * s2
        t1 = t1 + coef * sk
        t1p = t1p + coef * (2 * n + 1) * ck
    return t1, t1p


def _series_constants(q: complex, nterms: int):
    """theta1'(0) and theta1'''(0) (q^{1/4} dropped) from the same series."""
    t1p0 = 0.0 + 0.0j
    t1ppp0 = 0.0 + 0.0j
    for n, coef in enumerate(_series_coefficients(q, nterms)):
        k = 2 * n + 1
        t1p0 += k * coef
        t1ppp0 -= k**3 * coef
    return t1p0, t1ppp0


def _term_count(abs_q: float, vmax_im: float) -> int:
    # Tail term n has magnitude |q|^{n(n+1)} e^{(2n+1)|Im v|}; demand it fall
    # 1e-18 below the leading scale e^{|Im v|}.
    L = -math.log(abs_q)
    n = 2
    while n * (n + 1) * L - 2 * n * vmax_im < 41.5:
        n += 1
        if n > 200:
            raise DegenerateLatticeError("theta series would need too many terms")
    return n + 3


def make_context(omega1: complex, omega2: complex) -> WeierstrassContext:
    """Build the evaluation context, with the Legendre relation as a cross-check.

    eta1 comes from the series log-derivative at the origin; eta2 is computed
    independently as zeta(omega2).  If the pair violates
    eta1*omega2 - eta2*omega1 = i*pi/2 beyond 1e-10 the constructor fails
    rather than return an inconsistent context.
    """
    lat = Lattice(complex(omega1), complex(omega2))
    tau = lat.omega2 / lat.omega1
    nome = cmath.exp(1j * math.pi * tau)
    if abs(nome) > _MAX_ABS_NOME:
        raise DegenerateLatticeError(
            f"lattice too degenerate for the theta series (|q| = {abs(nome):.3f} > {_MAX_ABS_NOME})"
        )
    vmax = math.pi * tau.imag * (abs(_DIRECT_WINDOW[0]) + _DIRECT_WINDOW[1] + 0.1)
    nterms = _term_count(abs(nome), vmax)
    t1p0, t1ppp0 = _series_constants(nome, nterms)
    eta1 = -(math.pi**2) * t1ppp0 / (12.0 * lat.omega1 * t1p0)

    # zeta(omega2) straight from the series (omega2 sits in the direct window).
    v2 = math.pi * lat.omega2 / (2.0 * lat.omega1)
    t1, t1p = _theta_series(v2, nome, nterms)
    eta2 = eta1 * lat.omega2 / lat.omega1 + math.pi / (2.0 * lat.omega1) * t1p / t1

    legendre = eta1 * lat.omega2 - eta2 * lat.omega1 - 0.5j * math.pi
    if abs(legendre) > 1e-10:
        raise ArithmeticError(
            f"internal inconsistency: Legendre residual {abs(legendre):.3e} exceeds 1e-10"
        )

    p1, p2 = 2.0 * lat.omega1, 2.0 * lat.omega2
    det = p1.real * p2.imag - p2.real * p1.imag
    cell_inv = (p2.imag / det, -p2.real / det, -p1.imag / det, p1.real / det)
    return WeierstrassContext(
        lattice=lat, tau=tau, nome=nome, eta1=eta1, eta2=eta2,
        nterms=nterms, t1p0=t1p0, cell_inv=cell_inv,
    )


def cell_coordinates(ctx: WeierstrassContext, z):
    """Real coordinates (s, t) with z = 2*omega1*s + 2*omega2*t."""
    z = np.asarray(z, dtype=complex)
    a, b, c, d = ctx.cell_inv
    s = a * z.real + b * z.imag
    t = c * z.real + d * z.imag
    return s, t


def sigma_parts(ctx: WeierstrassContext, z):
    """Split sigma(z) = sign * exp(logfactor) * principal.

    `principal` is sigma evaluated near the fundamental cell (bounded there),
    `logfactor` the accumulated quasi-period exponent, `sign` +/-1.  Arguments
    already within the direct window keep logfactor = 0 and sign = 1.
    Array-valued z broadcasts elementwise.
    """
    z = np.asarray(z, dtype=complex)
    s, t = cell_coordinates(ctx, z)
    lo, hi = _DIRECT_WINDOW
    direct = (s >= lo) & (s <= hi) & (t >= lo) & (t <= hi)
    m = np.where(direct, 0.0, np.floor(s))
    n = np.where(direct, 0.0, np.floor(t))
    z0 = z - 2.0 * ctx.omega1 * m - 2.0 * ctx.omega2 * n

    shift = m * ctx.omega1 + n * ctx.omega2
    logfactor = (2.0 * m * ctx.eta1 + 2.0 * n * ctx.eta2) * (z0 + shift)
    sign = np.where((m + n + m * n) % 2.0 == 0.0, 1.0, -1.0)

    v = math.pi * z0 / (2.0 * ctx.omega1)
    t1, _ = _theta_series(v, ctx.nome, ctx.nterms)
    pref = 2.0 * ctx.omega1 / (math.pi * ctx.t1p0)
    principal = pref * np.exp(ctx.eta1 * z0 * z0 / (2.0 * ctx.omega1)) * t1
    return sign, logfactor, principal


def sigma(ctx: WeierstrassContext, z: complex) -> complex:
    """Weierstrass sigma at a single point."""
    sign, logfactor, principal = sigma_parts(ctx, complex(z))
    return complex(sign * np.exp(logfactor) * principal)


def log_abs_sigma(ctx: WeierstrassContext, z):
    """log|sigma(z)|, elementwise over arrays.

    Assembled as Re(logfactor) + log|principal| so it stays finite-precision
    even where sigma itself would overflow a double.  At the origin the value
    is exactly -inf; at other lattice points the theta series bottoms out at
    the rounding floor instead (log|sigma| around -36), which downstream
    integrands treat as an effective zero.
    """
    sign, logfactor, principal = sigma_parts(ctx, z)
    del sign
    with np.errstate(divide="ignore"):
        return logfactor.real + np.log(np.abs(principal))


def _quadratic_grid(p1: complex, p2: complex, s, t, a: complex, b: float = 0.0) -> np.ndarray:
    """Re(a z^2) + b |z|^2 at z = p1 s_i + p2 t_j, shape (len(s), len(t)).

    Both forms are quadratic in (s, t), so the grid is three separable terms
    and no complex z array is formed.  s and t are 1-D float arrays.
    """
    css = (a * p1 * p1).real + b * abs(p1) ** 2
    cst = 2.0 * ((a * p1 * p2).real + b * (p1 * p2.conjugate()).real)
    ctt = (a * p2 * p2).real + b * abs(p2) ** 2
    out = np.multiply.outer(cst * s, t)
    out += (css * s * s)[:, None]
    out += ctt * t * t
    return out


def log_abs_sigma_grid(ctx: WeierstrassContext, s, t) -> np.ndarray:
    """log|sigma(2 omega1 s_i + 2 omega2 t_j)| on the outer grid of 1-D s and t.

    Returns shape (len(s), len(t)).  Every coordinate must lie in the direct
    window, where no cell reduction is needed; otherwise ValueError.  With
    v = pi s + pi tau t each series term splits by angle addition,

        sin(k v) = sin(k pi s) cos(k pi tau t) + cos(k pi s) sin(k pi tau t),  k = 2n + 1,

    so theta1 on the grid is a rank-2*nterms product of a real s-factor and a
    complex t-factor.  The contraction is an einsum without BLAS, so values
    do not depend on the BLAS thread count.  The origin gives -inf; other
    lattice points land at the rounding floor, as in log_abs_sigma.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lo, hi = _DIRECT_WINDOW
    for name, x in (("s", s), ("t", t)):
        if x.ndim != 1 or not np.all((x >= lo) & (x <= hi)):
            raise ValueError(f"{name} must be a 1-D array inside the direct window [{lo}, {hi}]")
    K = ctx.nterms
    b = (math.pi * ctx.tau) * np.outer(2.0 * np.arange(K) + 1.0, t)
    coef = np.array(_series_coefficients(ctx.nome, K))[:, None]
    t_factor = np.concatenate([coef * np.cos(b), coef * np.sin(b)])
    # sin and cos of (2n+1) pi s by the angle-addition recurrence in n.
    s_factor = np.empty((2 * K, s.size))
    sin, cos = s_factor[:K], s_factor[K:]
    sin[0] = np.sin(math.pi * s)
    cos[0] = np.cos(math.pi * s)
    s2 = 2.0 * sin[0] * cos[0]
    c2 = 1.0 - 2.0 * sin[0] * sin[0]
    for n in range(1, K):
        sin[n] = sin[n - 1] * c2 + cos[n - 1] * s2
        cos[n] = cos[n - 1] * c2 - sin[n - 1] * s2
    # Computed as rows of t over columns of s: the real parts of theta1, then the imaginary parts.
    parts = np.einsum("kj,ki->ji", np.concatenate([t_factor.real, t_factor.imag], axis=1), s_factor)
    re, im = parts[:len(t)], parts[len(t):]
    re *= re
    im *= im
    re += im
    with np.errstate(divide="ignore"):
        out = np.log(re, out=re)
    out *= 0.5
    p1 = 2.0 * ctx.omega1
    out += _quadratic_grid(2.0 * ctx.omega2, p1, t, s, ctx.eta1 / p1)
    out += math.log(abs(p1 / (math.pi * ctx.t1p0)))
    return out.T


def weierstrass_zeta(ctx: WeierstrassContext, z: complex) -> complex:
    """Weierstrass zeta = sigma'/sigma at a single point.

    Raises LatticePoleError at lattice points (simple poles).
    """
    z = complex(z)
    s, t = cell_coordinates(ctx, z)
    s, t = float(s), float(t)
    ds = s - round(s)
    dt = t - round(t)
    if abs(ds) < 1e-12 and abs(dt) < 1e-12:
        raise LatticePoleError(f"zeta has a pole at the lattice point near z = {z!r}")
    lo, hi = _DIRECT_WINDOW
    if lo <= s <= hi and lo <= t <= hi:
        m = n = 0
        z0 = z
    else:
        m, n = math.floor(s), math.floor(t)
        z0 = z - 2.0 * ctx.omega1 * m - 2.0 * ctx.omega2 * n
    v = math.pi * z0 / (2.0 * ctx.omega1)
    t1, t1p = _theta_series(v, ctx.nome, ctx.nterms)
    base = ctx.eta1 * z0 / ctx.omega1 + math.pi / (2.0 * ctx.omega1) * t1p / t1
    return complex(base + 2.0 * m * ctx.eta1 + 2.0 * n * ctx.eta2)


def quasi_period_residual(ctx: WeierstrassContext, z: complex, j: int) -> float:
    """Normalized defect of sigma(z + 2*omega_j) + sigma(z) e^{2 eta_j (z + omega_j)}.

    Zero in exact arithmetic for j in {1, 2}; the return value is
    |defect| / (1 + |sigma(z + 2*omega_j)|).
    """
    if j not in (1, 2):
        raise ValueError(f"period index must be 1 or 2, got {j}")
    w = ctx.omega1 if j == 1 else ctx.omega2
    eta = ctx.eta1 if j == 1 else ctx.eta2
    z = complex(z)
    lhs = sigma(ctx, z + 2.0 * w)
    rhs = sigma(ctx, z) * cmath.exp(2.0 * eta * (z + w))
    return abs(lhs + rhs) / (1.0 + abs(lhs))
