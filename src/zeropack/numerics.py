"""Shared numeric substrate: gamma, Gauss-Legendre rules, reproducible RNG streams.

Everything here is pure and reentrant; rule and stream objects are immutable
after construction and freely shareable across threads.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, TypeVar

import numpy as np

_GAMMA_MAX = 170.0  # gamma overflows double just above 171.6
_MAX_THREADS = 256  # largest worker count accepted from a flag, the environment or a caller
_MAX_TRIALS = 100_000  # largest Monte Carlo trial count: every trial is queued up front, 1-2 KB each


def gamma_real(x: float) -> float:
    """Gamma function for positive real arguments.

    Valid for 0 < x <= 170; relative error is at the few-ulp level
    (far below 1e-12) on that range.

    Raises ValueError outside the domain.
    """
    if not (x > 0.0):
        raise ValueError(f"gamma_real requires x > 0, got {x!r}")
    if x > _GAMMA_MAX:
        raise ValueError(f"gamma_real restricted to x <= {_GAMMA_MAX} (overflow range), got {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and positive weights for integration over a real interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if not np.all(weights > 0.0):
            raise ValueError("quadrature weights must all be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=8)
def _legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built once per n, read-only.

    Newton on the recurrence from cos(pi (k - 1/4) / (n + 1/2)) for the ceil(n/2) nodes in
    [0, 1), weights 2 / ((1 - x^2) P_n'(x)^2), then mirrored: the rule is exactly symmetric and
    the middle node of an odd rule is exactly 0 (P_n(0) = 0 in floating point too).
    O(n^2) work and O(n) memory (Glaser-Liu-Rokhlin 2007, Hale-Townsend 2013).
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0
    p, dp = _legendre_with_derivative(n, x)
    for _ in range(100):  # converges in 4-6 steps
        step = p / dp
        x = x - step
        p, dp = _legendre_with_derivative(n, x)
        if np.max(np.abs(step)) <= 1e-16:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration did not converge at n = {n}")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = np.concatenate([-x[: n // 2], x[::-1]])
    w = np.concatenate([w[: n // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule1D:
    """Gauss-Legendre rule with n nodes on [a, b].

    Exact for polynomials of degree <= 2n-1.  The rule on [-1, 1] is built by Newton
    iteration on the Legendre recurrence, cached per n, and mapped affinely.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if not (a < b):
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = _legendre_unit(n)
    half = 0.5 * (b - a)
    return QuadratureRule1D(nodes=a + half * (x + 1.0), weights=half * w)


def _polar_values(coeffs, log_scales, radii, n_angular: int) -> np.ndarray:
    """F = sum_j coeffs[j] e^{log_scales[j]} z^j at z = radii[i] e^{2 pi i k/n}, shape (radii, n).

    Terms coeffs[j] exp(log_scales[j] + j log r) are formed in log space (radii > 0), so no
    scale underflows alone; z^j depends on j mod n on the circle, so they fold mod n into t
    and F(r e^{2 pi i k/n}) = n ifft(t)[k].  t holds min(n, len(coeffs)) columns and the FFT
    zero-pads it, so below degree n the result is the only (radii, n) array allocated.
    """
    log_r = np.log(radii)[:, None]
    folded = np.zeros((log_r.shape[0], min(n_angular, len(coeffs))), dtype=complex)
    for start in range(0, len(coeffs), n_angular):
        j = np.arange(start, min(start + n_angular, len(coeffs)))
        folded[:, : j.size] += coeffs[j] * np.exp(log_scales[j] + j * log_r)
    return np.fft.ifft(folded, n=n_angular, axis=1) * n_angular


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream addressed by (seed, stream_index).

    Identical (seed, stream_index) gives bitwise-identical draws across
    runs, machines, and thread counts; the counter-based Philox generator
    underneath makes substreams independent without coordination.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Derive the per-trial stream (seed, index), e.g. one per MC trial."""
        return RngStream(seed=self.seed, stream_index=index)


def sample_standard_complex_gaussian(rng: RngStream | np.random.Generator) -> complex:
    """One draw with density e^{-|zeta|^2} dA(zeta), dA = dx dy / pi.

    Real and imaginary parts are independent N(0, 1/2), so E|zeta|^2 = 1
    and E|zeta| = sqrt(pi)/2.
    """
    return complex(sample_complex_gaussians(rng, 1)[0])


def sample_complex_gaussians(rng: RngStream | np.random.Generator, n: int) -> np.ndarray:
    """n independent draws of the standard complex Gaussian, as a complex array."""
    g = rng.generator() if isinstance(rng, RngStream) else rng
    parts = g.normal(scale=math.sqrt(0.5), size=(2, n))
    return parts[0] + 1j * parts[1]


def resolve_threads(flag: int | None = None) -> int:
    """Worker count: ZEROPACK_THREADS overrides the flag; default is machine parallelism.

    Counts above _MAX_THREADS are rejected, so a typo cannot start a huge thread pool.
    """
    env = os.environ.get("ZEROPACK_THREADS")
    if env is not None:
        n = int(env)
        if not 1 <= n <= _MAX_THREADS:
            raise ValueError(f"ZEROPACK_THREADS must be in [1, {_MAX_THREADS}], got {env!r}")
        return n
    if flag is not None:
        if not 1 <= flag <= _MAX_THREADS:
            raise ValueError(f"thread count must be in [1, {_MAX_THREADS}], got {flag}")
        return flag
    return min(os.cpu_count() or 1, _MAX_THREADS)


_T = TypeVar("_T")


def map_indexed(fn: Callable[[int], _T], count: int, threads: int = 1) -> list[_T]:
    """Evaluate fn(0..count-1), possibly on a thread pool, in index order.

    Results are collected by index, so the output (and any reduction over
    it) is independent of the thread count.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if threads > _MAX_THREADS:
        raise ValueError(f"thread count must be at most {_MAX_THREADS}, got {threads}")
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _gaf_mc(log_scales, radii, weights, envelope, b: float, n_angular: int, trials: int,
            rng: RngStream, threads: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a GAF mismatch over a polar product rule.

    Trial i draws eta_j (j < len(log_scales)) from rng.substream(i), sums
    F = sum eta_j e^{log_scales[j]} z^j on the grid radii x n_angular angles, and returns
    weights @ mean over angles of (b envelope |F| - 1)^2.  The planar and disk GAFs differ
    only in their scales, radial rule and envelope.  Trials are indexed, so the estimate is
    thread-count independent.
    """
    if not (b > 0.0):
        raise ValueError(f"b must be positive, got {b}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trial count must be at most {_MAX_TRIALS}, got {trials}")
    scaled_envelope = b * envelope[:, None]

    def one_trial(i: int) -> float:
        eta = sample_complex_gaussians(rng.substream(i), len(log_scales))
        modulus = np.abs(_polar_values(eta, log_scales, radii, n_angular))
        return float(weights @ ((scaled_envelope * modulus - 1.0) ** 2).mean(axis=1))

    vals = np.array(map_indexed(one_trial, trials, threads))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))
