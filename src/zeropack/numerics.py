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


@lru_cache(maxsize=8)
def _legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n) on [-1, 1], built once per node count and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule1D:
    """Gauss-Legendre rule with n nodes on [a, b].

    Exact for polynomials of degree <= 2n-1.  Nodes/weights come from
    numpy's Golub-Welsch implementation on [-1, 1], cached per n, mapped affinely.
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
    g = rng.generator() if isinstance(rng, RngStream) else rng
    x, y = g.normal(scale=math.sqrt(0.5), size=2)
    return complex(x, y)


def sample_complex_gaussians(rng: RngStream | np.random.Generator, n: int) -> np.ndarray:
    """n independent draws of the standard complex Gaussian, as a complex array."""
    g = rng.generator() if isinstance(rng, RngStream) else rng
    parts = g.normal(scale=math.sqrt(0.5), size=(2, n))
    return parts[0] + 1j * parts[1]


def resolve_threads(flag: int | None = None) -> int:
    """Worker count: ZEROPACK_THREADS overrides the flag; default is machine parallelism."""
    env = os.environ.get("ZEROPACK_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError(f"ZEROPACK_THREADS must be >= 1, got {env!r}")
        return n
    if flag is not None:
        if flag < 1:
            raise ValueError(f"thread count must be >= 1, got {flag}")
        return flag
    return os.cpu_count() or 1


_T = TypeVar("_T")


def map_indexed(fn: Callable[[int], _T], count: int, threads: int = 1) -> list[_T]:
    """Evaluate fn(0..count-1), possibly on a thread pool, in index order.

    Results are collected by index, so the output (and any reduction over
    it) is independent of the thread count.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))
