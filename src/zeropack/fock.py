"""Cubic Gaussian-weighted projection of polynomials and stationary-wave residuals.

Monomials z^k are orthogonal with ||z^k||^2 = k! under the weight
e^{-|z|^2} dA, dA = dx dy / pi.  Projecting E1 f |f|^2 = e^{-|w|^2} f |f|^2
back onto entire functions reduces, coefficient by coefficient, to Gaussian
moments int |w|^{2n} e^{-2|w|^2} dA = n! / 2^{n+1}:

    g_m = sum_{a+b-c=m} c_a c_b conj(c_c) (a+b)! / (2^{a+b+1} m!).

A stationary wave of amplitude omega is a solution of omega * f = projection(f);
the residual below measures the defect in the weighted norm.  A FockPolynomial is
checked where a caller hands one in; the kernels and the solver work on its array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGREE_CAP = 64
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(2 * DEGREE_CAP + 1)])
# s! / 2^{s+1} and 1 / m!, each one correctly rounded division of Python integers
_PAIR_WEIGHT = np.array([math.factorial(s) / 2 ** (s + 1) for s in range(2 * DEGREE_CAP + 1)])
_INV_FACTORIAL = np.array([1 / math.factorial(m) for m in range(2 * DEGREE_CAP + 1)])
_MIN_DIVISOR = 1.0 / np.finfo(float).max  # complex division forms 1 / divisor, which overflows below


class FockOverflowError(OverflowError):
    """A weighted norm, a projection or its defect exceeded double range."""


class DivergenceError(ArithmeticError):
    """Fixed-point iteration moved persistently away from its best residual."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class FockPolynomial:
    """Polynomial sum c_k z^k; coefficient of z^k is coeffs[k]."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        if len(c) == 0:
            c = (0.0 + 0.0j,)
        if len(c) - 1 > 2 * DEGREE_CAP:
            raise ValueError(f"degree {len(c) - 1} exceeds hard cap {2 * DEGREE_CAP}")
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in c):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


def _norm(c: np.ndarray) -> float:
    """Weighted norm of the coefficients c, summed in log space to dodge overflow."""
    k = np.flatnonzero(c)
    if k.size == 0:
        return 0.0
    logs = 2.0 * np.log(np.abs(c[k])) + _LOG_FACTORIAL[k]
    peak = logs.max()
    half = 0.5 * (peak + math.log(np.exp(logs - peak).sum()))
    if half > 709.0:
        raise FockOverflowError("weighted norm exceeds double range")
    return math.exp(half)


def fock_norm(f: FockPolynomial) -> float:
    """Weighted norm with ||z^k||^2 = k!, evaluated through logs to dodge overflow."""
    return _norm(f.array())


def _project(c: np.ndarray) -> np.ndarray:
    """The 2N + 1 projection coefficients of the contiguous coefficients c of degree N: with P =
    c * c (a convolution), g_m = sum_k P_{m+k} conj(c_k) (m+k)! / (2^{m+k+1} m!), one convolution
    weighted by s! / 2^{s+1} and one correlation with c weighted by 1 / m!.  c is first divided
    exactly by 2^e to a largest modulus below 1, so no partial sum leaves double range, and g is
    multiplied back by 2^{3e}; a g beyond double range raises FockOverflowError."""
    n = len(c) - 1
    if n > DEGREE_CAP:
        raise ValueError(f"cubic_projection input degree {n} exceeds cap {DEGREE_CAP}")
    e = int(np.frexp(np.max(np.abs(c)))[1])
    c = np.ldexp(c.view(float), -e).view(complex)
    pairs = np.convolve(c, c) * _PAIR_WEIGHT[: 2 * n + 1]
    g = np.correlate(pairs, c, "full")[n:] * _INV_FACTORIAL[: 2 * n + 1]
    with np.errstate(over="ignore"):
        g = np.ldexp(g.view(float), 3 * e).view(complex)
    if not np.all(np.isfinite(g)):
        raise FockOverflowError("cubic projection exceeds double range")
    return g


def cubic_projection(f: FockPolynomial) -> FockPolynomial:
    """Exact projection of e^{-|w|^2} f |f|^2 onto polynomials, of twice the degree of f."""
    return FockPolynomial(tuple(_project(f.array()).tolist()))


def _defect_norm(g: np.ndarray, c: np.ndarray, omega: float) -> float:
    """||g - omega c|| in the weighted norm; g, a projection of c, is never shorter than c."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.concatenate([g[: len(c)] - omega * c, g[len(c):]])
    if not np.all(np.isfinite(d)):
        raise FockOverflowError(f"defect of the projection exceeds double range at omega = {omega:g}")
    return _norm(d)


def stationary_residual(f: FockPolynomial, omega: float) -> float:
    """||projection(f) - omega f|| in the weighted norm; omega finite and nonzero."""
    if not (math.isfinite(omega) and omega != 0.0):
        raise ValueError(f"omega must be finite and nonzero, got {omega}")
    c = f.array()
    return _defect_norm(_project(c), c, omega)


def fixed_point_solve(f0: FockPolynomial, omega: float, max_iters: int, tol: float):
    """Iterate f <- projection(f) / omega with unit-norm renormalization.

    Returns (final polynomial, residual history).  The iterate is a coefficient array, cut back
    to DEGREE_CAP each step (projection doubles the degree), and becomes a FockPolynomial only
    on return.  Convergence is not guaranteed; the history always comes back, and the caller
    sees a DivergenceError (carrying the history) if the residual climbs to ten times its
    running minimum.  tol must be >= 0; at 0 the residual never stops the solve.
    """
    if not (math.isfinite(omega) and omega != 0.0):
        raise ValueError(f"omega must be finite and nonzero, got {omega}")
    # here: a projection alone loads no other module
    from .numerics import _MAX_ITERS, _check_counts, _check_nonnegative

    _check_counts(1, _MAX_ITERS, max_iters=max_iters)
    _check_nonnegative(tol=tol)
    norm0 = fock_norm(f0)
    if norm0 < _MIN_DIVISOR:
        raise ValueError(f"f0 must have a weighted norm of at least {_MIN_DIVISOR:g}, got {norm0:g}")
    c = f0.array()[: DEGREE_CAP + 1] / norm0
    history: list[float] = []
    for _ in range(max_iters):
        g = _project(c)
        res = _defect_norm(g, c, omega)
        history.append(res)
        if res < tol:
            break
        if res > 10.0 * min(history) and len(history) > 1:
            raise DivergenceError(f"residual {res:.3e} grew 10x from its minimum {min(history):.3e}", history)
        with np.errstate(over="ignore", invalid="ignore"):  # omega below _MIN_DIVISOR
            nxt = g[: DEGREE_CAP + 1] / omega
        if not np.all(np.isfinite(nxt)):
            raise FockOverflowError(f"projection / omega exceeds double range at omega = {omega:g}")
        nn = _norm(nxt)
        if nn < _MIN_DIVISOR:
            raise DivergenceError(f"iterate collapsed to weighted norm {nn:g}", history)
        c = nxt / nn
    return FockPolynomial(tuple(c.tolist())), history
