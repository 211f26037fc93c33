"""Shared numeric substrate: Gauss-Legendre rules, polynomial zeros, reproducible RNG streams,
GAF Monte Carlo.

Everything here is pure and reentrant; rule and stream objects are immutable
after construction and freely shareable across threads.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, TypeVar

import numpy as np

_MAX_THREADS = 256  # largest worker count accepted from a flag, the environment or a caller
_MAX_TRIALS = 100_000  # largest Monte Carlo trial count: one float per trial is kept until the end
_MAX_ITERS = 100_000  # largest solver iteration cap: a history or trace entry is kept per iteration
_BATCH_POINTS = 8192  # grid points (trials x radii x angles) a GAF batch sums at once
_SCALES_MAX = 2**20  # largest term-scale table (radii x terms) a GAF call keeps; larger ones go per batch
_STIELTJES_MIN = 20.0  # n sin(theta) above which P_n(cos theta) comes from the Stieltjes expansion
_STIELTJES_TERMS = 20  # terms of that expansion
_ZERO_STEP = 1e-8  # relative Aberth step below which a zero counts as found
_ZERO_STEPS = 100  # most Aberth steps of one search


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and positive weights for integration over a real interval (built by gauss_legendre,
    which makes both arrays read-only)."""

    nodes: np.ndarray
    weights: np.ndarray


def _quarter_turns(q, c, phi) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of q pi/2 - c phi (integer q >= 0, 2c an integer in [0, 2^14), 0 <= phi < 2).

    The quarter turns are exact, and phi = hi + lo with c hi exact on a 2^-38 grid and c lo <
    2^-26 taken to first order, so a phase of up to n pi/2 is never rounded whole."""
    hi = np.round(phi * 2.0**38) * 2.0**-38
    turns = np.array([1, 1j, -1, -1j])[q % 4] * np.exp(-1j * (c * hi)) * (1.0 - 1j * (c * (phi - hi)))
    return turns.real, turns.imag


def _legendre_stieltjes(n: int, phi: np.ndarray, a_n: float) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP/dtheta at theta = pi/2 - phi by the Stieltjes expansion.

    C_n sum_m h_m cos(n pi/2 - (n + m + 1/2) phi) / (2 sin theta)^(m + 1/2), h_m = prod_{j <= m}
    (j - 1/2)^2 / (j (n + j + 1/2)), C_n = (4/pi) prod_{j <= n} j / (j + 1/2) = 2 / (pi (n + 1/2) a_n);
    the first term left out is below 1e-15 of the sum once n sin theta > _STIELTJES_MIN."""
    m = np.arange(_STIELTJES_TERMS) + 0.5
    h = np.cumprod(np.concatenate([[2.0 / (math.pi * (n + 0.5) * a_n)],
                                   m[:-1] ** 2 / (m[1:] - 0.5) / (n + m[1:])]))
    sin_theta = np.cos(phi)[:, None]
    cos_a, sin_a = _quarter_turns(n, n + m, phi[:, None])
    terms = h / (2.0 * sin_theta) ** m
    cot_theta = np.sin(phi)[:, None] / sin_theta
    return (terms * cos_a).sum(1), -(terms * ((n + m) * sin_a + m * cot_theta * cos_a)).sum(1)


def _legendre_cosines(n: int, phi: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) = sum_k a_k a_{n-k} cos((n - 2k) theta) and dP/dtheta, theta = pi/2 - phi.

    Exact and stable at every angle (positive coefficients summing to 1), O(n) per angle."""
    k = np.arange(n // 2 + 1)
    q = n - 2 * k
    coef = np.where(q > 0, 2.0, 1.0) * a[k] * a[n - k]
    cos_q, sin_q = _quarter_turns(q, q, phi[:, None])
    return cos_q @ coef, -(sin_q @ (q * coef))


@lru_cache(maxsize=8)
def _legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built once per n, read-only.

    Newton in phi = pi/2 - theta for the ceil(n/2) nodes x = cos theta = sin phi >= 0 from
    theta_k = pi (k - 1/4) / (n + 1/2), weights 2 / (dP/dtheta)^2, with no pass over the
    recurrence (Hale-Townsend 2013).  P_n comes from the Stieltjes expansion where n sin theta >
    _STIELTJES_MIN, elsewhere (about 7 nodes) from the cosine series.  The rule is mirrored, so it
    is exactly symmetric and the middle node of an odd rule is exactly 0.  O(n) work and memory;
    nodes within 1e-16 and weights within 2e-14 relative of a 30-digit rule up to n = 10,000.
    """
    phi = np.pi * np.arange(n - 1, -1, -2) / (2 * n + 1)
    a = np.cumprod(np.r_[1.0, np.arange(1, 2 * n, 2) / np.arange(2, 2 * n + 1, 2)])
    near_one = np.count_nonzero(n * np.cos(phi) <= _STIELTJES_MIN)  # a prefix: phi decreases
    for _ in range(100):  # converges in 4 steps
        p, dp = np.concatenate([_legendre_cosines(n, phi[:near_one], a),
                                _legendre_stieltjes(n, phi[near_one:], a[n])], axis=1)
        step = p / dp
        phi = phi + step
        if np.max(np.abs(step)) <= 4e-16:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration did not converge at n = {n}")
    dp += np.tan(phi) * p  # dP/dtheta at the root, as P'' = -cot(theta) P' - n (n + 1) P
    x, w = np.sin(phi), 2.0 / (dp * dp)
    x = np.concatenate([-x[: n // 2], x[::-1]])
    w = np.concatenate([w[: n // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _check_counts(low=None, high=None, /, **counts) -> None:
    """ValueError naming the first argument that is not an integer in [low, high]: numpy
    integers pass, bool does not.  low=None checks the type alone, high=None sets no upper bound."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if low is not None and not (low <= value and (high is None or value <= high)):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{name} must be {bounds}, got {value}")


def _check_positive(**values) -> None:
    """ValueError naming the first argument that is not > 0, nan included; values print with str."""
    for name, value in values.items():
        if not (value > 0.0):
            raise ValueError(f"{name} must be positive, got {value}")


def _check_nonnegative(**values) -> None:
    """ValueError naming the first argument that is not >= 0, nan included; values print with str."""
    for name, value in values.items():
        if not (value >= 0.0):
            raise ValueError(f"{name} must be nonnegative, got {value}")


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule1D:
    """Gauss-Legendre rule with n nodes on [a, b].

    Exact for polynomials of degree <= 2n-1.  The rule on [-1, 1] is built in O(n) by Newton
    iteration in the angle (_legendre_unit), cached per n, and mapped affinely.
    """
    _check_counts(1, None, n=n)
    if not (a < b):
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = _legendre_unit(n)
    half = 0.5 * (b - a)
    nodes, weights = a + half * (x + 1.0), half * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(nodes=nodes, weights=weights)


def richardson(values, steps, powers) -> tuple[float, float]:
    """Limit c0 of values[i] = c0 + sum_k c_k steps[i]**powers[k] + ..., and c0 - c0'.

    values run from the coarsest step to the finest; powers holds len(values) - 1 exponents,
    or none when there is nothing to eliminate (the finest value is the limit).  c0' drops the
    finest value and the last power.  Generalized Richardson elimination of neighbouring pairs
    (the E-algorithm: Havie 1979, Brezinski 1980) in plain floats in a fixed order, no BLAS;
    the terms are scaled by steps[0]**p, which the elimination does not see, to stay in range.
    """
    n = len(values)
    if n < 2 or len(steps) != n or len(powers) not in (0, n - 1):
        raise ValueError(f"need n >= 2 values, n steps and n - 1 or no powers, got "
                         f"{n}, {len(steps)}, {len(powers)}")
    e = [float(v) for v in values]
    g = [[(h / steps[0]) ** p for h in steps] for p in powers]
    coarser = e[-2]
    for k, gk in enumerate(g):  # each stage overwrites the later rows in place, one entry shorter
        d = [gk[i + 1] - gk[i] for i in range(len(e) - 1)]
        coarser = e[0]
        for row in g[k + 1:] + [e]:
            for i in range(len(d)):
                row[i] = (row[i] * gk[i + 1] - row[i + 1] * gk[i]) / d[i]
            row.pop()
    return e[-1], e[-1] - coarser


def _newton_polygon_starts(coeffs: np.ndarray) -> np.ndarray:
    """Starting points for the zeros of sum_k coeffs[k] z^k, coeffs[0] and coeffs[-1] nonzero.

    Each edge from k_a to k_b of the upper convex hull of the points (k, log|coeffs[k]|) puts
    k_b - k_a points on the circle of radius (|coeffs[k_a]| / |coeffs[k_b]|)^(1 / (k_b - k_a)),
    where that many zeros lie for a polynomial whose terms differ widely in size (Bini, Numer.
    Algorithms 13, 1996).  The angles are uniform, turned by 2 pi k_a / degree + 0.7 so that no
    two circles line up."""
    k = np.flatnonzero(coeffs)
    logs = np.log(np.abs(coeffs[k])).tolist()
    k = k.tolist()
    hull = []
    for i in range(len(k)):  # monotone chain: drop the last vertex while it is not above the chord
        while len(hull) >= 2 and ((logs[hull[-1]] - logs[hull[-2]]) * (k[i] - k[hull[-2]])
                                  <= (logs[i] - logs[hull[-2]]) * (k[hull[-1]] - k[hull[-2]])):
            hull.pop()
        hull.append(i)
    starts = []
    for a, b in zip(hull, hull[1:]):
        m = k[b] - k[a]
        angles = 2.0 * np.pi * (np.arange(m) / m + k[a] / (coeffs.size - 1)) + 0.7
        starts.append(np.exp((logs[a] - logs[b]) / m + 1j * angles))
    return np.concatenate(starts)


def _polynomial_zeros(coeffs) -> np.ndarray:
    """The zeros of sum_k coeffs[k] z^k, coeffs[0] and coeffs[-1] nonzero, degree >= 1.

    Divided by the largest modulus, a coefficient below the least normal double changes the
    polynomial by less than its rounding on the closed unit disk.  Such coefficients at either
    end are dropped, so the first and last kept are normal and every Newton polygon radius is a
    finite double: k dropped leading ones give k zeros at 0, and the zeros the dropped trailing
    ones carry lie outside the unit disk and are left out.

    Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973) from _newton_polygon_starts: each
    step moves every estimate z_i by N_i / (1 - N_i sum_{j != i} 1 / (z_i - z_j)), N_i = p / p'
    at z_i.  p and p' come from the powers of z, or where |z| > 1 from the powers of 1/z with the
    reversed coefficients, so no power exceeds 1 in modulus.  The iteration stops when every
    estimate either moves by at most _ZERO_STEP of its modulus, which leaves an error of about
    the step's cube at a simple zero, or has |p| <= 16 eps sum_k |coeffs[k]|, rounding level,
    where a multiple zero ends; and after _ZERO_STEPS steps at most.  Elementwise numpy only,
    O(degree^2) work and memory per step, with no LAPACK call, so the zeros do not depend on the
    BLAS thread count; np.roots costs O(degree^3).
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c / np.max(np.abs(c))
    kept = np.flatnonzero(np.abs(c) >= np.finfo(float).tiny)
    origin = np.zeros(kept[0], dtype=complex)
    c = c[kept[0] : kept[-1] + 1]
    n = c.size - 1
    if n <= 1:  # no zero left, or the one at -c[0] / c[1]
        return np.concatenate([origin, -c[:n] / c[n:]])
    z = _newton_polygon_starts(c)
    # rows p and p' of the polynomial, then of its reverse z^n p(1/z), against the powers 0..n
    table = np.zeros((2, 2, n + 1), dtype=complex)
    table[:, 0] = c, c[::-1]
    table[:, 1, :-1] = table[:, 0, 1:] * np.arange(1, n + 1)
    noise = 16.0 * np.finfo(float).eps * np.abs(c).sum()
    diagonal = np.diag(np.full(n, np.inf))  # drops j = i from the sum over the other estimates
    powers = np.ones((n, n + 1), dtype=complex)
    with np.errstate(all="ignore"):  # a step that fails is not taken
        for _ in range(_ZERO_STEPS):
            flip = np.abs(z) > 1.0
            x = np.where(flip, 1.0 / z, z)
            powers[:, 1:] = x[:, None]
            np.cumprod(powers, axis=1, out=powers)
            p, dp = np.einsum("ikj,ij->ki", table[flip.view(np.int8)], powers)
            newton = p / np.where(flip, (n * p - x * dp) * x, dp)
            step = newton / (1.0 - newton * (1.0 / (z[:, None] - z + diagonal)).sum(axis=1))
            step[~np.isfinite(step)] = 0.0
            z -= step
            if np.all((np.abs(step) <= _ZERO_STEP * np.abs(z)) | (np.abs(p) <= noise)):
                break
    return np.concatenate([origin, z])


def _term_scales(log_scales, radii, n_angular: int, log_offset=None):
    """The scales exp(log_scales[j] + j log radii[i] + log_offset[i]), as _polar_values folds them.

    One (radii, columns) array per block of n_angular terms, formed in log space (radii > 0): no
    scale underflows alone, and log_offset, one value per radius, keeps every term of an
    enveloped series in range where the series itself would overflow."""
    log_r = np.log(radii)[:, None]
    shift = 0.0 if log_offset is None else np.asarray(log_offset, dtype=float)[:, None]
    for start in range(0, len(log_scales), n_angular):
        j = np.arange(start, min(start + n_angular, len(log_scales)))
        yield np.exp(log_scales[j] + j * log_r + shift)


def _radial_variance(scales) -> np.ndarray:
    """sigma_i^2 = sum_j scales[i, j]^2 over the blocks of _term_scales, one value per radius.

    E |F|^2 on circle i of F = sum_j eta_j scales[i, j] z^j with standard complex Gaussian eta_j."""
    return sum((block * block).sum(axis=1) for block in scales)


def _polar_values(coeffs, scales, out, work) -> np.ndarray:
    """F = sum_j coeffs[..., j] scales[i, j] e^{2 pi i jk/n} into out, of shape (..., radii, n).

    coeffs is one series or a stack of them, and scales are the blocks of _term_scales on the
    same n: with scales[i, j] = e^{log_scales[j]} radii[i]^j, F is the series at z = radii[i]
    e^{2 pi i k/n}.  z^j depends on j mod n on the circle, so the terms fold mod n into t and F
    is the unnormalized inverse FFT of t at k (norm="forward").  t is folded into the caller's
    buffer out, zeroed first, and transformed in place; each block's products go through work,
    a complex buffer shaped like out, so the call allocates no grid array.
    """
    n_angular = out.shape[-1]
    out.fill(0.0)
    for start, block in zip(range(0, coeffs.shape[-1], n_angular), scales):
        width = block.shape[1]
        out[..., :width] += np.multiply(coeffs[..., None, start : start + width], block,
                                        out=work[..., :width])
    return np.fft.ifft(out, axis=-1, norm="forward", out=out)


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
        _check_counts(0, 2**64 - 1, seed=self.seed, stream_index=self.stream_index)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Derive the per-trial stream (seed, index), e.g. one per MC trial."""
        return RngStream(seed=self.seed, stream_index=index)


def sample_complex_gaussians(rng: RngStream | np.random.Generator, n: int) -> np.ndarray:
    """n independent draws of the standard complex Gaussian, as a complex array."""
    g = rng.generator() if isinstance(rng, RngStream) else rng
    parts = g.normal(scale=math.sqrt(0.5), size=(2, n))
    return parts[0] + 1j * parts[1]


def _substream_draws(rng: RngStream, n: int, batch: int):
    """A function draw(indices, eta) that sets eta[k] to sample_complex_gaussians(rng.substream(i),
    n) for the k-th of the at most `batch` indices, bit for bit, from one generator.

    The Philox generator is re-keyed to (seed, i) with a zero counter and an empty buffer by
    setting its state, which costs a tenth of building one.  Each substream's 2n standard normals
    go straight into a row of one (batch, 2, n) buffer, and one scale by sqrt(1/2) writes its two
    halves into the real and imaginary parts of eta: normal(scale=s) is s * standard_normal() in
    every bit.  The state, its key array and the buffer belong to this call, so concurrent calls
    share nothing."""
    gen = rng.generator()
    state = gen.bit_generator.state  # a fresh copy: counter 0, buffer empty
    key = state["state"]["key"]
    normals = np.empty((batch, 2, n))

    def draw(indices, eta) -> None:
        for k, i in enumerate(indices):
            key[1] = i
            gen.bit_generator.state = state
            gen.standard_normal(out=normals[k])
        rows = len(indices)
        np.multiply(normals[:rows, 0], math.sqrt(0.5), out=eta[:rows].real)
        np.multiply(normals[:rows, 1], math.sqrt(0.5), out=eta[:rows].imag)

    return draw


def resolve_threads(flag: int | None = None) -> int:
    """Worker count: ZEROPACK_THREADS overrides the flag; the default is 1.

    One thread is the default because the per-trial numpy calls are small: two threads were
    slower at most GAF sizes on a 2-core machine.  Counts above _MAX_THREADS are rejected, so
    a typo cannot start a huge thread pool.
    """
    env = os.environ.get("ZEROPACK_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"ZEROPACK_THREADS must be an integer, got {env!r}") from None
        if not 1 <= n <= _MAX_THREADS:
            raise ValueError(f"ZEROPACK_THREADS must be in [1, {_MAX_THREADS}], got {env!r}")
        return n
    return 1 if flag is None else _checked_threads(flag)


def _checked_threads(threads: int) -> int:
    """threads, if it is a worker count in [1, _MAX_THREADS]; ValueError otherwise."""
    _check_counts(1, _MAX_THREADS, threads=threads)
    return threads


_T = TypeVar("_T")


def _split(count: int, parts: int) -> list[range]:
    """range(count) cut into `parts` contiguous ranges whose lengths differ by at most one."""
    edges = [count * k // parts for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def map_indexed(fn: Callable[[int], _T], count: int, threads: int = 1) -> list[_T]:
    """Evaluate fn(0..count-1), possibly on a thread pool, in index order.

    On more than one thread the indices are cut into min(threads, count) contiguous ranges,
    one pool task each.  Results are collected by index, so the output (and any reduction
    over it) is independent of the thread count.
    """
    _check_counts(0, None, count=count)
    if _checked_threads(threads) == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms (logging, queue): only when threaded

    ranges = _split(count, min(threads, count))
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        tasks = [pool.submit(lambda part: [fn(i) for i in part], part) for part in ranges]
        return [value for task in tasks for value in task.result()]


class TruncationError(ValueError):
    """Requested series truncation fails its tail bound."""


def gaf_expected(b: float) -> float:
    """Expected discrepancy b^2 - b sqrt(pi) + 1 of the amplitude-b GAF, planar or on the disk.

    The normalized fields e^{-|z|^2} F(z) of the planar GAF (covariance e^{2 z conj(w)}) and
    (1-|z|^2) G(z) of the disk GAF (covariance (1 - z conj(w))^{-2}) are standard complex
    Gaussian at every point, so E(b|zeta| - 1)^2 = b^2 - b sqrt(pi) + 1 in both geometries,
    independent of the radius and minimized at b = sqrt(pi)/2 with value 1 - pi/4.
    planar.planar_gaf_expected and hyperbolic.hyperbolic_gaf_expected are this function.
    """
    _check_positive(b=b)
    value = b * b - b * math.sqrt(math.pi) + 1.0
    if not math.isfinite(value):
        raise OverflowError(f"the expected discrepancy overflows double precision at b = {b}")
    return value


def _power_of_two_at_least(x: float, low: int, high: int) -> int:
    """The least power of two >= x, clamped to [low, high] (low a power of two, high = low 2^k)."""
    n = low
    while n < high and n < x:
        n *= 2
    return n


def _gaf_mc(log_scales, radii, weights, log_envelope, b: float, n_angular: int, trials: int,
            rng: RngStream, threads: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a GAF mismatch over a polar product rule.

    Trial i draws eta_j (j < len(log_scales)) from rng.substream(i), sums
    F = sum eta_j e^{log_scales[j]} z^j on the grid radii x n_angular angles, and takes
    X = weights @ mean over angles of (b e^{log_envelope} |F| - 1)^2.  The envelope enters each
    term in log space, so F may outgrow a double where e^{log_envelope} |F| does not.  The
    planar and disk GAFs differ only in their scales, radial rule and envelope.

    Every normalized value e^{log_envelope} F is a standard complex Gaussian, so X is unbiased
    for E(b|zeta| - 1)^2 on any grid whose weights sum to 1; the grid sets only its variance.
    A trial returns X - c (A - E A), with A the same quadrature of e^{2 log_envelope} |F|^2 and
    E A = weights @ sigma^2 exact, sigma^2 summed from the scales the trials fold
    (_radial_variance), so the estimate stays unbiased.  The fixed c = b^2 - b sqrt(pi)/2 is the
    pointwise regression coefficient b^2 - 2b Cov(|zeta|, |zeta|^2) / Var|zeta|^2; it vanishes
    at b = sqrt(pi)/2, where the trial is the plain X.

    The scales (_term_scales, envelope included) are formed once per call into one table, or
    above _SCALES_MAX afresh for E A and for each batch.  The trials are cut into one contiguous
    range per thread (map_indexed); a range is summed in batches of about _BATCH_POINTS grid
    points through buffers it allocates once, with its own re-keyed generator
    (_substream_draws).  Each trial is still reduced on its own, so every value, and the
    estimate, is independent of the batch size and the thread count.
    """
    _check_positive(b=b)
    _check_counts(2, _MAX_TRIALS, trials=trials)
    _check_counts(1, None, n_angular=n_angular)
    _checked_threads(threads)
    c = b * (b - math.sqrt(math.pi) / 2.0)
    grid = (len(radii), n_angular)
    blocks = partial(_term_scales, log_scales, radii, n_angular, log_envelope)
    table = list(blocks()) if len(radii) * len(log_scales) <= _SCALES_MAX else None
    mean_a = float(weights @ _radial_variance(table or blocks()))
    batch = max(1, _BATCH_POINTS // (grid[0] * grid[1]))

    def run(part: range) -> list[float]:
        draw = _substream_draws(rng, len(log_scales), batch)
        eta = np.empty((batch, len(log_scales)), dtype=complex)
        values = np.empty((batch, *grid), dtype=complex)
        products = np.empty((batch, *grid), dtype=complex)
        modulus = np.empty((batch, *grid))
        out = []
        for start in range(part.start, part.stop, batch):
            rows = min(batch, part.stop - start)
            draw(range(start, start + rows), eta)
            m = np.abs(_polar_values(eta[:rows], table or blocks(), values[:rows], products[:rows]),
                       out=modulus[:rows])
            with np.errstate(over="ignore"):  # a huge b: reported below as an OverflowError
                x = ((b * m - 1.0) ** 2).mean(axis=-1)
            a = (m * m).mean(axis=-1)
            out += [float(weights @ x[k]) - c * (float(weights @ a[k]) - mean_a) for k in range(rows)]
        return out

    parts = _split(trials, min(threads, trials))
    vals = np.array([v for part in map_indexed(lambda t: run(parts[t]), len(parts), threads) for v in part])
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise OverflowError(f"the squared mismatch or its spread overflows double precision at b = {b}")
    return mean, stderr
