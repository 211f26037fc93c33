"""Cubic Gaussian-weighted projection of polynomials and stationary-wave residuals.

Monomials z^k are orthogonal with ||z^k||^2 = k! under the weight
e^{-|z|^2} dA, dA = dx dy / pi.  Projecting E1 f |f|^2 = e^{-|w|^2} f |f|^2
back onto entire functions reduces, coefficient by coefficient, to Gaussian
moments int |w|^{2n} e^{-2|w|^2} dA = n! / 2^{n+1}:

    g_m = sum_{a+b-c=m} c_a c_b conj(c_c) (a+b)! / (2^{a+b+1} m!).

A stationary wave of amplitude omega is a solution of
omega * f = projection(f); the residual below measures the defect in the
weighted norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGREE_CAP = 64
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(2 * DEGREE_CAP + 1)])


class FockOverflowError(OverflowError):
    """A weighted norm or factorial ratio exceeded double range."""


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


def fock_norm(f: FockPolynomial) -> float:
    """Weighted norm with ||z^k||^2 = k!, evaluated through logs to dodge overflow."""
    c = f.array()
    nz = np.nonzero(np.abs(c))[0]
    if nz.size == 0:
        return 0.0
    logs = np.array([2.0 * math.log(abs(c[k])) + math.lgamma(k + 1.0) for k in nz])
    peak = logs.max()
    half = 0.5 * (peak + math.log(np.exp(logs - peak).sum()))
    if half > 709.0:
        raise FockOverflowError("weighted norm exceeds double range")
    return math.exp(half)


def cubic_projection(f: FockPolynomial) -> FockPolynomial:
    """Exact projection of e^{-|w|^2} f |f|^2 onto polynomials.

    Output degree is at most twice the input degree.  The factorial ratios
    (a+b)! / (2^{a+b+1} m!) are formed in log space; with the degree cap they
    stay inside double range.
    """
    c = f.array()
    N = len(c) - 1
    if N > DEGREE_CAP:
        raise ValueError(f"cubic_projection input degree {N} exceeds cap {DEGREE_CAP}")
    # P_s = sum_{a+b=s} c_a c_b, then g_m = sum_{k=0..N, m+k<=2N} P_{m+k} conj(c_k) W(m+k, m)
    # with W(s, m) = s!/(2^{s+1} m!), on the (2N+1) x (N+1) grid of (m, k).
    P = np.convolve(c, c)
    m = np.arange(2 * N + 1)[:, None]
    s = m + np.arange(N + 1)
    inside = s <= 2 * N
    s = np.where(inside, s, 0)
    w = np.exp(_LOG_FACTORIAL[s] - (s + 1.0) * math.log(2.0) - _LOG_FACTORIAL[m])
    terms = P[s] * c.conj() * w
    return FockPolynomial(tuple(np.where(inside, terms, 0.0).sum(axis=1)))


def _defect_norm(g: np.ndarray, c: np.ndarray, omega: float) -> float:
    """||g - omega c|| in the weighted norm; g, a projection of c, is never shorter than c."""
    d = g.copy()
    d[: len(c)] -= omega * c
    return fock_norm(FockPolynomial(tuple(d)))


def stationary_residual(f: FockPolynomial, omega: float) -> float:
    """||projection(f) - omega f|| in the weighted norm."""
    return _defect_norm(cubic_projection(f).array(), f.array(), omega)


def _truncate(coeffs: np.ndarray, cap: int) -> np.ndarray:
    out = coeffs[: cap + 1]
    return out if out.size else np.zeros(1, dtype=complex)


def fixed_point_solve(
    f0: FockPolynomial,
    omega: float,
    max_iters: int,
    tol: float,
    degree_cap: int = DEGREE_CAP,
):
    """Iterate f <- projection(f) / omega with unit-norm renormalization.

    Returns (final polynomial, residual history).  Convergence is not
    guaranteed; the history always comes back, and the caller sees a
    DivergenceError (carrying the history) if the residual climbs to ten
    times its running minimum.  Iterates are truncated back to `degree_cap`
    (projection doubles the degree each step).
    """
    if omega == 0.0:
        raise ValueError("omega must be nonzero")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    norm0 = fock_norm(f0)
    if norm0 == 0.0:
        raise ValueError("f0 must be nonzero")
    cur = FockPolynomial(tuple(_truncate(f0.array() / norm0, degree_cap)))
    history: list[float] = []
    for _ in range(max_iters):
        g = cubic_projection(cur).array()
        res = _defect_norm(g, cur.array(), omega)
        history.append(res)
        if res < tol:
            return cur, history
        if res > 10.0 * min(history) and len(history) > 1:
            raise DivergenceError(
                f"residual {res:.3e} grew 10x from its minimum {min(history):.3e}", history
            )
        nxt = _truncate(g / omega, degree_cap)
        nn = fock_norm(FockPolynomial(tuple(nxt)))
        if nn == 0.0:
            raise DivergenceError("iterate collapsed to zero", history)
        cur = FockPolynomial(tuple(nxt / nn))
    return cur, history
