"""Substrate checks: quadrature exactness, RNG reproducibility, threading."""

from __future__ import annotations

import math
import re
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

from oracles import disk_gaf_trial_variance, gauss_legendre_mp
from zeropack import hyperbolic, numerics, planar
from zeropack.fock import FockPolynomial, fixed_point_solve
from zeropack.hyperbolic import (
    DiskFunction,
    hyperbolic_discrepancy,
    hyperbolic_gaf_mc,
    hyperbolic_gaf_truncation,
    make_disk_quadrature,
    tight_discrepancy,
)
from zeropack.numerics import (
    _MAX_THREADS,
    QuadratureRule1D,
    RngStream,
    _STIELTJES_MIN,
    _THREAD_POINTS,
    _legendre_cosines,
    _legendre_stieltjes,
    _legendre_unit,
    _polar_values,
    _polynomial_zeros,
    _radial_variance,
    _split,
    _substream_draws,
    _term_scales,
    gaf_expected,
    gauss_legendre,
    map_indexed,
    resolve_threads,
    sample_complex_gaussians,
)
from zeropack.planar import planar_gaf_mc, planar_gaf_truncation
from zeropack.sphere import (SphereQuadrature, discrepancy, equilibrium_residual, gradient_flow,
                             partition_function, random_configuration, rho1_closed)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # n nodes integrate monomials exactly through degree 2n-1.
        a, b, n = 0.3, 2.1, 6
        rule = gauss_legendre(n, a, b)
        for k in range(2 * n):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            got = float(np.sum(rule.weights * rule.nodes**k))
            assert got == pytest.approx(exact, rel=1e-13), f"degree {k}"

    def test_weight_sum_is_length(self):
        rule = gauss_legendre(40, -2.0, 5.0)
        assert float(rule.weights.sum()) == pytest.approx(7.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 2.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257, 2048])
    def test_matches_mpmath_reference(self, n):
        x, w = _legendre_unit(n)
        if n <= 64:
            indices = range(n)
        else:  # both ends, second from each end, the middle
            indices = sorted({0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1})
        weight_rel = 1e-12 if n <= 64 else 1e-9
        for i, (node, weight) in zip(indices, gauss_legendre_mp(n, indices)):
            assert abs(mp.mpf(x[i]) - node) <= 2e-16, f"node {i}"
            assert abs(mp.mpf(w[i]) / weight - 1) <= weight_rel, f"weight {i}"

    @pytest.mark.parametrize("n", [257, 2048])
    def test_weights_match_mpmath_reference_to_1e12(self, n):
        _, w = _legendre_unit(n)
        indices = sorted({0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1})
        for i, (_, weight) in zip(indices, gauss_legendre_mp(n, indices)):
            assert abs(mp.mpf(w[i]) / weight - 1) <= 1e-12, f"weight {i}"

    @pytest.mark.parametrize("n", [64, 2048])
    def test_legendre_evaluators_agree_across_the_switch(self, n):
        # Both sides of n sin(theta) = _STIELTJES_MIN, where the rule switches evaluator;
        # errors are measured against the local amplitude, since P itself crosses zero.
        a = np.cumprod(np.r_[1.0, np.arange(1, 2 * n, 2) / np.arange(2, 2 * n + 1, 2)])
        theta = np.arcsin(_STIELTJES_MIN * np.array([0.9, 0.995, 1.005, 1.1, 1.5]) / n)
        phi = np.pi / 2 - theta
        p_cos, dp_cos = _legendre_cosines(n, phi, a)
        p_st, dp_st = _legendre_stieltjes(n, phi, a[n])
        amplitude = np.hypot(p_cos, dp_cos / (n + 0.5))
        assert np.all(np.abs(p_st - p_cos) <= 1e-13 * amplitude)
        assert np.all(np.abs(dp_st - dp_cos) <= 1e-13 * (n + 0.5) * amplitude)

    def test_even_monomials_at_4096_nodes(self):
        x, w = _legendre_unit(4096)
        for k in range(201):
            exact = 2.0 / (2 * k + 1)
            assert float(np.sum(w * x ** (2 * k))) == pytest.approx(exact, rel=1e-13), f"x^{2 * k}"

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257, 2048])
    def test_rule_is_exactly_symmetric(self, n):
        x, w = _legendre_unit(n)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0)
        if n % 2:
            assert x[n // 2] == 0.0

    def test_rule_builds_once_per_node_count(self):
        _legendre_unit.cache_clear()
        try:
            f = DiskFunction(coeffs=(1.0, 0.5j, -0.25))
            for r in (0.3, 0.6, 0.9):
                hyperbolic_discrepancy(f, r)
            tight_discrepancy(f, 0.75)
            gauss_legendre(7, 0.0, 1.0)
            gauss_legendre(7, -2.0, 5.0)
            builds = _legendre_unit.cache_info().misses
        finally:
            _legendre_unit.cache_clear()
        assert builds == 2  # n = 128 (the panel rule) and n = 7, each once

    def test_rule_arrays_are_read_only(self):
        rule = gauss_legendre(8, 0.0, 2.0)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5
        q = make_disk_quadrature(0.5, 8, 8)
        with pytest.raises(ValueError):
            q.u_nodes[0] = 0.9
        with pytest.raises(ValueError):
            q.hyperbolic_weights[0] = 1.0

    def test_construction_leaves_caller_arrays_writable(self):
        nodes, weights = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        QuadratureRule1D(nodes=nodes, weights=weights)
        nodes[0] = 0.0
        weights[0] = 1.0


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = RngStream(seed=11, stream_index=4).generator().normal(size=64)
        b = RngStream(seed=11, stream_index=4).generator().normal(size=64)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        s = RngStream(seed=11)
        a = s.substream(0).generator().normal(size=64)
        b = s.substream(1).generator().normal(size=64)
        assert not np.array_equal(a, b)

    def test_substream_addressing(self):
        assert RngStream(seed=7).substream(3) == RngStream(seed=7, stream_index=3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError):
            RngStream(seed=seed)

    def test_complex_gaussian_moments(self):
        # Fixed seed, so the statistical assertion is deterministic.
        draws = sample_complex_gaussians(RngStream(seed=5), 40000)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.mean(np.abs(draws)) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=0.01
        )

    def test_single_draw_matches_batch_layout(self):
        # n draws take 2n normals of the stream: the n real parts first, then the n imaginary.
        normals = RngStream(seed=9).generator().normal(scale=math.sqrt(0.5), size=6)
        assert list(sample_complex_gaussians(RngStream(seed=9), 3)) == list(normals[:3] + 1j * normals[3:])
        single = sample_complex_gaussians(RngStream(seed=9).generator(), 1)
        assert single.shape == (1,) and complex(single[0]) == complex(normals[0], normals[1])

    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_rekeyed_draws_equal_fresh_substreams(self, seed):
        # One generator re-keyed per index: counter and buffer start afresh every time, so
        # consecutive, repeated and extreme indices give the draws of a freshly built substream,
        # in every row of every batch, whole or short, written into a batch buffer.
        rng = RngStream(seed=seed, stream_index=5)
        batches = [[0, 1, 2], [2**64 - 1, 7], [2, 0, 3]]
        for n in (1, 7, 64):
            draw = _substream_draws(rng, n, 3)
            eta = np.full((3, n), np.nan, dtype=complex)
            for indices in batches:
                draw(indices, eta)
                for i, row in zip(indices, eta):
                    assert row.tobytes() == sample_complex_gaussians(rng.substream(i), n).tobytes(), (i, n)


def _threads_message(threads) -> str:
    """The exact refusal of a worker count outside [1, _MAX_THREADS], as a pattern."""
    return f"^{re.escape(f'threads must be in [1, {_MAX_THREADS}], got {threads}')}$"


class TestResolveThreads:
    def test_env_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("ZEROPACK_THREADS", "3")
        assert resolve_threads(8) == 3

    def test_flag_without_env(self):
        assert resolve_threads(2) == 2

    def test_default_is_one_thread(self):
        assert resolve_threads(None) == 1

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("ZEROPACK_THREADS", "0")
        with pytest.raises(ValueError):
            resolve_threads(4)

    def test_invalid_flag(self):
        with pytest.raises(ValueError):
            resolve_threads(0)

    @pytest.mark.parametrize("env", ["abc", "2.5", ""])
    def test_env_that_is_not_an_integer_is_named(self, monkeypatch, env):
        monkeypatch.setenv("ZEROPACK_THREADS", env)
        with pytest.raises(ValueError, match=f"ZEROPACK_THREADS must be an integer, got '{env}'"):
            resolve_threads(1)

    @pytest.mark.parametrize("count", [_MAX_THREADS + 1, 1000000])
    def test_counts_above_cap_are_rejected(self, monkeypatch, count):
        assert resolve_threads(_MAX_THREADS) == _MAX_THREADS
        with pytest.raises(ValueError, match=_threads_message(count)):
            resolve_threads(count)
        monkeypatch.setenv("ZEROPACK_THREADS", str(count))
        with pytest.raises(ValueError, match="ZEROPACK_THREADS"):
            resolve_threads(1)

    def test_map_indexed_rejects_counts_above_cap(self):
        calls = []
        with pytest.raises(ValueError, match=_threads_message(_MAX_THREADS + 1)):
            map_indexed(calls.append, 4, threads=_MAX_THREADS + 1)
        assert calls == []


class TestMapIndexed:
    def test_preserves_index_order(self):
        assert map_indexed(lambda i: i * i, 7) == [0, 1, 4, 9, 16, 25, 36]

    def test_thread_count_independent(self):
        def work(i: int) -> float:
            return float(RngStream(seed=3, stream_index=i).generator().normal())

        single = map_indexed(work, 16, threads=1)
        pooled = map_indexed(work, 16, threads=4)
        assert single == pooled

    def test_empty_and_invalid(self):
        assert map_indexed(lambda i: i, 0) == []
        with pytest.raises(ValueError):
            map_indexed(lambda i: i, -1)

    @pytest.mark.parametrize("count, threads", [(0, 3), (1, 2), (2, 5), (3, 3), (10, 3), (11, 4), (64, 2)])
    def test_each_index_once_in_order(self, count, threads):
        calls = []

        def work(i: int) -> int:
            calls.append((i, threading.get_ident()))
            return -i

        assert map_indexed(work, count, threads=threads) == [-i for i in range(count)]
        assert sorted(i for i, _ in calls) == list(range(count))
        # One pool task per contiguous range: along the indices the thread changes at most at
        # the boundaries between ranges.
        owners = [thread for _, thread in sorted(calls)]
        assert sum(a != b for a, b in zip(owners, owners[1:])) <= max(min(threads, count) - 1, 0)

    @pytest.mark.parametrize("count, parts", [(10, 3), (11, 4), (2, 2), (5, 1), (64, 2), (3, 3)])
    def test_split_is_contiguous_and_even(self, count, parts):
        ranges = _split(count, parts)
        assert len(ranges) == parts
        assert [i for part in ranges for i in part] == list(range(count))
        assert max(map(len, ranges)) - min(map(len, ranges)) <= 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_counts_below_one_are_rejected(self, threads):
        calls = []
        with pytest.raises(ValueError, match=_threads_message(threads)):
            map_indexed(calls.append, 4, threads=threads)
        assert calls == []


class TestHalvingRichardson:
    """planar._halving_richardson: the classical Richardson table on halving steps."""

    @staticmethod
    def _series(e):
        # c0 + sum_k c_k h^{e + 2k} on the halving steps h = 1/16, ..., 1/128.
        powers = [e + 2.0, e + 4.0, e + 6.0]
        c0, coeffs = 0.7, [1.3, -2.1, 0.9]
        values = [c0 + sum(c * h**p for c, p in zip(coeffs, powers))
                  for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128)]
        return c0, values, powers

    @pytest.mark.parametrize("e", [0.25, 1.0, 3.7])
    def test_recovers_the_limit_of_a_power_series(self, e):
        c0, values, powers = self._series(e)
        limit, _ = planar._halving_richardson(values, powers)
        assert limit == pytest.approx(c0, abs=1e-15)

    @pytest.mark.parametrize("e", [0.25, 1.0, 3.7])
    def test_coarser_value_drops_the_finest_level_and_the_last_power(self, e):
        # The table without the finest value and the h^{e+6} power is the same arithmetic on
        # the first three values, so limit - gap is its limit exactly (Sterbenz: the two are
        # within a factor 2, so neither subtraction rounds).
        _, values, powers = self._series(e)
        limit, gap = planar._halving_richardson(values, powers)
        assert limit - gap == planar._halving_richardson(values[:-1], powers[:-1])[0]

    def test_one_power_is_the_correction_form(self):
        # b + (b - a) / (2^p - 1) with a = 1, b = 2, p = 1.
        assert planar._halving_richardson([1.0, 2.0], [1.0]) == (3.0, 2.0)

    def test_constant_sequence_is_its_own_limit(self):
        assert planar._halving_richardson([2.5] * 4, [3.0, 5.0, 7.0]) == (2.5, 0.0)

    def test_no_powers_returns_the_finest_value(self):
        assert planar._halving_richardson([1.0, 3.0, 2.0], ()) == (2.0, -1.0)


class TestPolynomialZeros:
    """The Aberth search against numpy's companion-matrix eigenvalues (np.roots)."""

    @staticmethod
    def _assert_matches(zeros, want, tol):
        assert zeros.shape == want.shape
        for z in want:  # each zero has a found one nearby, and no two share one
            assert np.min(np.abs(zeros - z)) <= tol * max(1.0, abs(z)), (z, zeros)
        for z in zeros:
            assert np.min(np.abs(want - z)) <= tol * max(1.0, abs(z)), (z, want)

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 12, 48, 128])
    def test_random_polynomials_match_np_roots(self, degree):
        for seed in range(5):
            c = sample_complex_gaussians(RngStream(seed=seed, stream_index=degree), degree + 1)
            self._assert_matches(_polynomial_zeros(c), np.roots(c[::-1]), 1e-12)

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 1), (1,) * 9, (2, 0, 0, 1e-6), (1, 1e3, 1e-3)],
                             ids=["1+z^4", "geometric", "far", "spread"])
    def test_structured_polynomials_match_np_roots(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        self._assert_matches(_polynomial_zeros(c), np.roots(c[::-1]), 1e-12)

    @pytest.mark.parametrize("root, power", [(-0.5, 2), (-1.0, 3), (0.3 + 0.4j, 2)])
    def test_multiple_zeros_stop_at_rounding_level(self, monkeypatch, root, power):
        # A zero of multiplicity m is found to about eps^(1/m); the search must stop there
        # rather than run out its steps.
        steps, cumprod = [], np.cumprod
        monkeypatch.setattr(numerics.np, "cumprod", lambda *a, **k: steps.append(1) or cumprod(*a, **k))
        c = np.polynomial.polynomial.polyfromroots([root] * power)
        zeros = _polynomial_zeros(c)
        monkeypatch.undo()
        assert len(steps) < numerics._ZERO_STEPS
        assert np.max(np.abs(zeros - root)) <= 4.0 * np.finfo(float).eps ** (1.0 / power)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs, zeros", [
        ((1e30, 1.0, 1e-300), [-1e30]),  # the term below the least normal double is dropped
        ((1e-300, 1.0, 1e30), [0.0, -1e-30]),  # a dropped leading term leaves a zero at 0
        ((1e30, 1e-300), []),
        ((1e-300, 1e-300, 1e30), [0.0, 0.0]),
        ((1e30, 1e20, 3e-294), [-1e10]),  # a subnormal end would put a start at exp(721)
    ])
    def test_coefficients_below_the_normal_range_are_dropped(self, coeffs, zeros):
        got = _polynomial_zeros(coeffs)
        assert got.shape == (len(zeros),)
        assert np.allclose(got, zeros, rtol=1e-12, atol=0.0)

    def test_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")
        for name in ("eig", "eigvals", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "roots", refuse)
        c = sample_complex_gaussians(RngStream(seed=3), 49)
        assert _polynomial_zeros(c).shape == (48,)


class TestPolarValues:
    @pytest.mark.parametrize("degree", [3, 63, 200])  # 63: one block; 200: folded mod 64
    def test_matches_polyval_on_disk_grid(self, degree):
        quad = make_disk_quadrature(0.9, 256, 64)
        parts = RngStream(seed=degree).generator().normal(size=(2, degree + 1))
        coeffs = parts[0] + 1j * parts[1]
        angles = 2.0 * np.pi * np.arange(64) / 64
        grid = np.sqrt(quad.u_nodes)[:, None] * np.exp(1j * angles)[None, :]
        want = np.polynomial.polynomial.polyval(grid, coeffs)
        scales = _term_scales(np.zeros(degree + 1), np.sqrt(quad.u_nodes), 64)
        got = _polar_values(coeffs, scales, *np.empty((2, 256, 64), dtype=complex))
        assert got.shape == (256, 64)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_log_scales_multiply_the_coefficients(self):
        coeffs = np.array([1.0, 2.0 - 1.0j, 0.5j, -3.0, 1.5, 0.25 + 0.25j])
        log_scales = np.array([0.0, -1.0, 2.0, 0.5, -0.3, 1.1])
        radii = np.array([0.2, 0.7, 1.3])
        got = _polar_values(coeffs, _term_scales(log_scales, radii, 4),  # degree 5 folds mod 4
                            *np.empty((2, 3, 4), dtype=complex))
        z = radii[:, None] * np.exp(0.5j * np.pi * np.arange(4))[None, :]
        want = np.polynomial.polynomial.polyval(z, coeffs * np.exp(log_scales))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_stack_equals_its_rows_bitwise(self):
        # A stack of series gives each row's one-series values bit for bit, in the caller's
        # output buffer (degree 70 folds mod 32).
        radii = np.linspace(0.05, 2.0, 9)
        log_scales = 0.5 * np.log(np.arange(1.0, 72.0))
        log_offset = -radii**2
        parts = RngStream(seed=3).generator().normal(size=(2, 5, 71))
        stack = parts[0] + 1j * parts[1]
        scales = list(_term_scales(log_scales, radii, 32, log_offset))
        out = np.empty((5, 9, 32), dtype=complex)
        assert _polar_values(stack, scales, out, np.empty_like(out)) is out
        for row, values in zip(stack, out):
            one = _polar_values(row, scales, *np.empty((2, 9, 32), dtype=complex))
            assert values.tobytes() == one.tobytes()
        # The terms fold into out itself through work, so what either held before does not
        # leak into F.
        again, work = np.full((2, 5, 9, 32), complex(np.nan, np.inf))
        assert _polar_values(stack, scales, again, work).tobytes() == out.tobytes()


_GAF = {  # mode -> (module, Monte Carlo, truncation degree)
    "planar": (planar, planar_gaf_mc, planar_gaf_truncation),
    "hyperbolic": (hyperbolic, hyperbolic_gaf_mc, hyperbolic_gaf_truncation),
}


def _gaf_args(mode, extent, b, trials, rng, **grid):
    """The arguments planar_gaf_mc / hyperbolic_gaf_mc hand to _gaf_mc, without running it."""
    seen = []

    def record(*args):
        seen.append(args)
        return 0.0, 0.0

    module, mc, truncation = _GAF[mode]
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(module, "_gaf_mc", record)
        mc(extent, b, truncation(extent), trials, rng, **grid)
    (args,) = seen
    return args


def _per_trial_reference(args, trials):
    """(mean, stderr) of _gaf_mc on its arguments, one trial at a time through the one-series kernel."""
    log_scales, radii, weights, log_envelope, b, n_angular, _, rng, _ = args
    c = b * (b - math.sqrt(math.pi) / 2.0)
    scales = list(_term_scales(log_scales, radii, n_angular, log_envelope))
    mean_a = float(weights @ _radial_variance(scales))
    vals = []
    for i in range(trials):
        eta = sample_complex_gaussians(rng.substream(i), len(log_scales))
        modulus = np.abs(_polar_values(eta, scales, *np.empty((2, len(radii), n_angular), dtype=complex)))
        x = float(weights @ ((b * modulus - 1.0) ** 2).mean(axis=1))
        a = float(weights @ (modulus * modulus).mean(axis=1))
        vals.append(x - c * (a - mean_a))
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def _grid_of(mode, extent):
    args = _gaf_args(mode, extent, 1.0, 2, RngStream(seed=1))
    return len(args[1]), args[5]


class TestGafMonteCarlo:
    @pytest.mark.parametrize("mode, extent", [("planar", 2.0), ("hyperbolic", 0.9)])
    def test_optimal_amplitude_gives_the_plain_estimator_bitwise(self, mode, extent):
        # c = b^2 - b sqrt(pi)/2 is exactly 0: no control term, the plain mean of X.
        b, trials, rng = math.sqrt(math.pi) / 2.0, 5, RngStream(seed=4)
        log_scales, radii, weights, log_envelope, _, n_angular, *_ = _gaf_args(mode, extent, b, trials, rng)
        scales = list(_term_scales(log_scales, radii, n_angular, log_envelope))
        vals = []
        for i in range(trials):
            eta = sample_complex_gaussians(rng.substream(i), len(log_scales))
            modulus = np.abs(_polar_values(eta, scales, *np.empty((2, len(radii), n_angular), dtype=complex)))
            vals.append(float(weights @ ((b * modulus - 1.0) ** 2).mean(axis=1)))
        vals = np.array(vals)
        plain = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials)))
        _, mc, truncation = _GAF[mode]
        got = mc(extent, b, truncation(extent), trials, rng, threads=2)
        assert [x.hex() for x in got] == [x.hex() for x in plain]

    @pytest.mark.parametrize("table", [True, False], ids=["table", "per-batch"])
    @pytest.mark.parametrize("mode, extent", [("planar", 4.0), ("planar", 30.0), ("hyperbolic", 0.95)])
    def test_mean_square_matches_brute_force(self, monkeypatch, mode, extent, table):
        # E A = weights @ sigma^2, sigma^2 summed from the scale blocks _gaf_mc folds: its table,
        # or with _SCALES_MAX at 0 blocks formed afresh.  16 angles: the series (degree 68, 2043
        # and 162) is summed in many column blocks.
        log_scales, radii, weights, log_envelope, *_ = _gaf_args(mode, extent, 1.0, 2, RngStream(seed=1))
        j = np.arange(len(log_scales))
        terms = np.exp(log_scales[None, :] + j * np.log(radii)[:, None] + log_envelope[:, None])
        brute = float(np.sum(weights[:, None] * terms**2))
        seen = []
        monkeypatch.setattr(numerics, "_radial_variance",
                            lambda scales: seen.append((type(scales), _radial_variance(scales))) or seen[-1][1])
        if not table:
            monkeypatch.setattr(numerics, "_SCALES_MAX", 0)
        _, mc, truncation = _GAF[mode]
        mc(extent, 1.0, truncation(extent), 2, RngStream(seed=1), n_angular=16)
        ((kind, sigma2),) = seen
        assert (kind is list) == table
        got = float(weights @ sigma2)
        assert got == pytest.approx(brute, rel=1e-14)
        assert 0.99 < got <= 1.0 + 1e-12

    @pytest.mark.parametrize("mode, extent", [("planar", 2.0), ("hyperbolic", 0.9)])
    def test_control_variate_is_unbiased_on_a_coarse_grid(self, mode, extent):
        # b = 1.4 gives the control term its largest weight in the bench range of amplitudes.
        b, rng = 1.4, RngStream(seed=21)
        _, mc, truncation = _GAF[mode]
        mean, stderr = mc(extent, b, truncation(extent), 4000, rng, threads=2, n_radial=16, n_angular=16)
        assert abs(mean - gaf_expected(b)) < 4.0 * stderr

    @pytest.mark.parametrize("mode, extent, grid", [
        ("planar", 2.0, (16, 64)), ("planar", 4.0, (16, 128)), ("hyperbolic", 0.9, (8, 32)),
        ("hyperbolic", 0.95, (8, 64)), ("planar", 1e-300, (16, 16)), ("planar", 27.0, (108, 256)),
        ("hyperbolic", 0.99, (8, 128)),
    ])
    def test_default_grid_follows_the_extent(self, mode, extent, grid):
        assert _grid_of(mode, extent) == grid

    def test_default_grid_never_exceeds_the_fixed_one(self):
        # The CLI accepts any R whose truncation degree is admissible (R = 27 and 100 here) and
        # any r in (0, 1); the fixed grids were 192 x 256 (plane) and 256 x 128 (disk).
        for R in [*np.geomspace(0.01, 4.0, 40), 1e-300, 27.0, 100.0]:
            n_radial, n_angular = _grid_of("planar", float(R))
            assert 16 <= n_radial <= 192 and 16 <= n_angular <= 256
        for r in [*np.linspace(0.01, 0.95, 40), 1e-3, 0.999]:
            n_radial, n_angular = _grid_of("hyperbolic", float(r))
            assert n_radial <= 256 and 16 <= n_angular <= 128

    def test_bench_and_acceptance_grids_stay_below_the_thread_floor(self):
        # Planar R <= 4 and disk r <= 0.95 are the default grids the benchmark and the acceptance
        # runs time; a grid change that lifts one to _THREAD_POINTS brings back the threaded
        # path, which is slower there.
        for R in np.geomspace(0.01, 4.0, 40):
            n_radial, n_angular = _grid_of("planar", float(R))
            assert n_radial * n_angular < _THREAD_POINTS, R
        for r in np.linspace(0.01, 0.95, 40):
            n_radial, n_angular = _grid_of("hyperbolic", float(r))
            assert n_radial * n_angular < _THREAD_POINTS, r

    @pytest.mark.parametrize("threads", [2, 8])
    @pytest.mark.parametrize("n_radial, split", [
        (_THREAD_POINTS // 256 - 1, False), (_THREAD_POINTS // 256, True),
        (_THREAD_POINTS // 256 + 1, True),
    ], ids=["below", "at", "above"])
    def test_trials_split_across_threads_only_from_the_floor(self, monkeypatch, threads, n_radial,
                                                             split):
        # Below the floor the call is the threads=1 path: one range on the calling thread.
        calls = []
        monkeypatch.setattr(numerics, "map_indexed",
                            lambda fn, count, threads=1: calls.append((count, threads))
                            or map_indexed(fn, count, threads))
        want = planar_gaf_mc(2.0, 1.3, planar_gaf_truncation(2.0), 5, RngStream(seed=3),
                             n_radial=n_radial, n_angular=256)
        assert calls == [(1, 1)]
        got = planar_gaf_mc(2.0, 1.3, planar_gaf_truncation(2.0), 5, RngStream(seed=3),
                            threads=threads, n_radial=n_radial, n_angular=256)
        n = min(threads, 5) if split else 1
        assert calls[1:] == [(n, n)]
        assert got == want

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("mode, extent", [("planar", 2.0), ("hyperbolic", 0.9)])
    def test_batches_equal_the_per_trial_reference_bitwise(self, mode, extent, threads):
        # b = 1.3: c != 0, so every trial carries its control term.
        b, rng = 1.3, RngStream(seed=8)
        args = _gaf_args(mode, extent, b, 2, rng)
        batch = numerics._BATCH_POINTS // (len(args[1]) * args[5])
        assert batch >= 2
        _, mc, truncation = _GAF[mode]
        for trials in sorted({2, batch - 1, batch, batch + 1, 2 * batch + 1}):
            got = mc(extent, b, truncation(extent), trials, rng, threads=threads)
            assert [x.hex() for x in got] == [x.hex() for x in _per_trial_reference(args, trials)], trials

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("mode, extent, grid", [("planar", 2.0, (80, 256)),
                                                    ("hyperbolic", 0.9, (160, 128))])
    def test_split_ranges_equal_the_per_trial_reference_bitwise(self, mode, extent, grid, threads):
        # The twin of the case above on a grid at the thread floor, where the trials run as
        # min(threads, trials) ranges of one-trial batches.
        assert grid[0] * grid[1] == _THREAD_POINTS
        b, rng = 1.3, RngStream(seed=8)
        args = _gaf_args(mode, extent, b, 2, rng, n_radial=grid[0], n_angular=grid[1])
        _, mc, truncation = _GAF[mode]
        for trials in (2, 5):
            got = mc(extent, b, truncation(extent), trials, rng, threads=threads,
                     n_radial=grid[0], n_angular=grid[1])
            assert [x.hex() for x in got] == [x.hex() for x in _per_trial_reference(args, trials)], trials

    @pytest.mark.parametrize("mode, extent", [("planar", 2.0), ("hyperbolic", 0.9)])
    def test_scales_formed_per_batch_give_the_same_trials(self, monkeypatch, mode, extent):
        # Above _SCALES_MAX the scale table is formed per batch instead of once per call.
        b, rng = 1.3, RngStream(seed=8)
        args = _gaf_args(mode, extent, b, 2, rng)
        monkeypatch.setattr(numerics, "_SCALES_MAX", 0)
        _, mc, truncation = _GAF[mode]
        got = mc(extent, b, truncation(extent), 11, rng, threads=2)
        assert [x.hex() for x in got] == [x.hex() for x in _per_trial_reference(args, 11)]

    def test_concurrent_tasks_share_no_generator_state(self):
        # More tasks than cores, and a switch interval short enough to interleave them inside a
        # batch: a generator or key shared between tasks would change some trial.
        R, b = 2.0, 1.3
        N = planar_gaf_truncation(R)
        want = planar_gaf_mc(R, b, N, 40, RngStream(seed=12), threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = planar_gaf_mc(R, b, N, 40, RngStream(seed=12), threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_concurrent_tasks_share_no_generator_state_above_the_thread_floor(self):
        # The case above on a grid past the floor, where eight ranges do run as pool tasks.
        R, b, grid = 2.0, 1.3, {"n_radial": 128, "n_angular": 256}
        assert grid["n_radial"] * grid["n_angular"] >= _THREAD_POINTS
        N = planar_gaf_truncation(R)
        want = planar_gaf_mc(R, b, N, 40, RngStream(seed=12), threads=1, **grid)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = planar_gaf_mc(R, b, N, 40, RngStream(seed=12), threads=8, **grid)
        finally:
            sys.setswitchinterval(interval)
        assert got == want


def _old_disk_grid(r):
    """The disk default before the grid was sized to the field: 32 radii and the power of two
    >= 4 pi r / (1 - r^2) angles, clamped to [16, 128]."""
    return 32, numerics._power_of_two_at_least(4.0 * math.pi * r / ((1.0 - r) * (1.0 + r)), 16, 128)


class TestGafTrialVariance:
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_default_disk_grid_costs_at_most_one_percent_of_variance(self, r):
        # Exact per-trial variance, through the oracle that shares no library code: the default
        # grid (8 radii, half the old angles) against the old one, at a quarter to an eighth of
        # its points.
        bs = np.array([0.6, math.sqrt(math.pi) / 2.0, 1.4])
        N = hyperbolic_gaf_truncation(r)
        new, old = _grid_of("hyperbolic", r), _old_disk_grid(r)
        assert new[0] * new[1] * 4 <= old[0] * old[1]
        ratio = disk_gaf_trial_variance(r, N, *new, bs) / disk_gaf_trial_variance(r, N, *old, bs)
        assert np.all(ratio <= 1.01), ratio

    def test_exact_variance_matches_library_trials(self):
        # Sample over exact variance of 4000 trials on the default grid at r = 0.9, b = 1.3
        # (control term active): over seeds 0-19 it was 1.008 on average with spread 0.038 and
        # range 0.955-1.119, so 0.2 is five spreads.
        r, b, trials = 0.9, 1.3, 4000
        N = hyperbolic_gaf_truncation(r)
        _, stderr = hyperbolic_gaf_mc(r, b, N, trials, RngStream(seed=7))
        exact = disk_gaf_trial_variance(r, N, *_grid_of("hyperbolic", r), b)
        assert abs(stderr**2 * trials / exact - 1.0) < 0.2

    def test_planar_and_explicit_disk_grids_keep_their_values(self):
        # Draws written straight into the batch are bitwise the old complex draws: the planar
        # default grid and the old disk grid, given explicitly, give the values they gave before.
        b = math.sqrt(math.pi) / 2.0
        got = [planar_gaf_mc(2.0, 1.3, planar_gaf_truncation(2.0), 40, RngStream(seed=5), threads=2),
               planar_gaf_mc(4.0, b, planar_gaf_truncation(4.0), 40, RngStream(seed=11)),
               hyperbolic_gaf_mc(0.95, 1.3, hyperbolic_gaf_truncation(0.95), 40, RngStream(seed=5),
                                 threads=2, n_radial=32, n_angular=128),
               hyperbolic_gaf_mc(0.9, 1.0, hyperbolic_gaf_truncation(0.9), 40, RngStream(seed=1),
                                 n_radial=32, n_angular=64)]
        assert [[x.hex() for x in pair] for pair in got] == [
            ["0x1.78c14e2de529ep-2", "0x1.6b9ce8da295f6p-7"],
            ["0x1.af70f2fe52243p-3", "0x1.4e2c93ec609e5p-8"],
            ["0x1.9156979c25856p-2", "0x1.6b92b6a91c460p-7"],
            ["0x1.de0ca08f06e26p-3", "0x1.ad2df880341fdp-7"],
        ]


def _flow(n=2, max_iters=1):
    return gradient_flow(n, 1.0, RngStream(seed=1), max_iters=max_iters, quad=SphereQuadrature(8, 16))


_TOP_SEED = 2**64 - 1

INTEGER_ARGUMENTS = [  # (entry point, argument, low, high, values the call accepts, the call)
    # The accepted values include a bound where a call at it is cheap and valid; the first one
    # is also passed as a numpy integer.
    ("gauss_legendre", "n", 1, None, (10, 1), lambda v: gauss_legendre(v, 0.0, 1.0)),
    ("SphereQuadrature", "n_polar", 2, None, (16, 2), lambda v: SphereQuadrature(v, 32)),
    ("SphereQuadrature", "n_azimuthal", 2, None, (32, 2), lambda v: SphereQuadrature(16, v)),
    ("make_disk_quadrature", "n_radial", 4, None, (16, 4), lambda v: make_disk_quadrature(0.5, v, 16)),
    ("make_disk_quadrature", "n_angular", 4, None, (16, 4), lambda v: make_disk_quadrature(0.5, 16, v)),
    ("planar_gaf_mc", "truncation_N", 0, planar._MAX_TRUNCATION, (14,),
     lambda v: planar_gaf_mc(1.0, 1.0, v, 2, RngStream(seed=1))),
    ("planar_gaf_mc", "trials", 2, numerics._MAX_TRIALS, (2,),
     lambda v: planar_gaf_mc(1.0, 1.0, 14, v, RngStream(seed=1))),
    ("planar_gaf_mc", "threads", 1, _MAX_THREADS, (2, 1, _MAX_THREADS),
     lambda v: planar_gaf_mc(1.0, 1.0, 14, 2, RngStream(seed=1), threads=v)),
    ("planar_gaf_mc", "n_radial", 1, None, (8, 1),
     lambda v: planar_gaf_mc(1.0, 1.0, 14, 2, RngStream(seed=1), n_radial=v)),
    ("planar_gaf_mc", "n_angular", 1, None, (8, 1),
     lambda v: planar_gaf_mc(1.0, 1.0, 14, 2, RngStream(seed=1), n_angular=v)),
    ("hyperbolic_gaf_mc", "truncation_N", 1, hyperbolic._MAX_TRUNCATION, (11,),
     lambda v: hyperbolic_gaf_mc(0.5, 1.0, v, 2, RngStream(seed=1))),
    ("hyperbolic_gaf_mc", "trials", 2, numerics._MAX_TRIALS, (2,),
     lambda v: hyperbolic_gaf_mc(0.5, 1.0, 11, v, RngStream(seed=1))),
    ("hyperbolic_gaf_mc", "threads", 1, _MAX_THREADS, (2, 1, _MAX_THREADS),
     lambda v: hyperbolic_gaf_mc(0.5, 1.0, 11, 2, RngStream(seed=1), threads=v)),
    ("hyperbolic_gaf_mc", "n_radial", 4, None, (8, 4),
     lambda v: hyperbolic_gaf_mc(0.5, 1.0, 11, 2, RngStream(seed=1), n_radial=v)),
    ("hyperbolic_gaf_mc", "n_angular", 4, None, (16, 4),
     lambda v: hyperbolic_gaf_mc(0.5, 1.0, 11, 2, RngStream(seed=1), n_angular=v)),
    ("map_indexed", "count", 0, None, (3, 0), lambda v: map_indexed(int, v)),
    ("map_indexed", "threads", 1, _MAX_THREADS, (2, 1, _MAX_THREADS),
     lambda v: map_indexed(int, 3, threads=v)),
    ("random_configuration", "n", 1, None, (3, 1), lambda v: random_configuration(v, RngStream(seed=1))),
    ("gradient_flow", "n", 1, None, (2, 1), lambda v: _flow(n=v)),
    ("gradient_flow", "max_iters", 0, numerics._MAX_ITERS, (1, 0), lambda v: _flow(max_iters=v)),
    ("fixed_point_solve", "max_iters", 1, numerics._MAX_ITERS, (2, 1),
     lambda v: fixed_point_solve(FockPolynomial((1.0, 0.5)), 0.5, v, 1e-12)),
    ("RngStream", "seed", 0, _TOP_SEED, (1, 0, _TOP_SEED), lambda v: RngStream(seed=v)),
    ("RngStream", "stream_index", 0, _TOP_SEED, (0, _TOP_SEED),
     lambda v: RngStream(seed=1, stream_index=v)),
    ("planar_lattice_density", "grid_m", 16, planar._MAX_GRID, (16, planar._MAX_GRID),
     lambda v: planar.planar_lattice_density(1.0, v)),
    ("planar_gaf_tail", "N", None, None, (10,), lambda v: planar.planar_gaf_tail(1.0, v)),
    ("hyperbolic_gaf_tail", "N", 1, None, (2, 1), lambda v: hyperbolic.hyperbolic_gaf_tail(0.5, v)),
]


@pytest.mark.parametrize("value", [10.5, True, np.int64], ids=["float", "bool", "int64"])
@pytest.mark.parametrize("name, valid, call", [(name, valid[0], call)
                                               for _, name, _, _, valid, call in INTEGER_ARGUMENTS],
                         ids=[f"{entry}-{name}" for entry, name, *_ in INTEGER_ARGUMENTS])
def test_count_arguments_must_be_integers(name, valid, call, value):
    # A float or a bool count is refused with a ValueError naming it; numpy integers pass.
    if value is np.int64:
        call(np.int64(valid))
    else:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            call(value)


_BOUNDED = [entry for entry in INTEGER_ARGUMENTS if entry[2] is not None]


@pytest.mark.parametrize("name, low, high, valid, call", [entry[1:] for entry in _BOUNDED],
                         ids=[f"{entry}-{name}" for entry, name, *_ in _BOUNDED])
def test_count_arguments_out_of_range_name_the_value(name, low, high, valid, call):
    # One message for every integer range: "in [low, high]", or ">= low" with no upper bound.
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    for value in (low - 1,) if high is None else (low - 1, high + 1):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {bounds}, got {value}')}$"):
            call(value)
    for value in valid:
        call(value)


@pytest.mark.parametrize("module, call", [
    (planar, lambda: planar_gaf_mc(1.0, 1.0, 10**9, 2, RngStream(seed=1))),
    (hyperbolic, lambda: hyperbolic_gaf_mc(0.5, 1.0, 10**9, 2, RngStream(seed=1))),
], ids=["planar", "disk"])
def test_a_huge_truncation_degree_is_refused_before_any_work(monkeypatch, module, call):
    # The planar front would build one lgamma value per degree before the Monte Carlo.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the truncation_N check")

    for name in ("planar_gaf_tail", "hyperbolic_gaf_tail", "gauss_legendre", "_gaf_mc"):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, no_work)
    with pytest.raises(ValueError, match=r"^truncation_N must be in \[\d, \d+\], got 1000000000$"):
        call()


_CONFIG, _QUAD = random_configuration(2, RngStream(seed=1)), SphereQuadrature(8, 16)

POSITIVE_ARGUMENTS = [  # (entry point, argument, the call with that argument set)
    ("partition_function", "gamma", lambda v: partition_function(_CONFIG, v, _QUAD)),
    ("equilibrium_residual", "beta", lambda v: equilibrium_residual(_CONFIG, v, _QUAD)),
    ("discrepancy", "beta", lambda v: discrepancy(_CONFIG, v, _QUAD)),
    ("rho1_closed", "beta", rho1_closed),
    ("gradient_flow", "beta", lambda v: gradient_flow(2, v, RngStream(seed=1), max_iters=1)),
    ("gradient_flow", "step", lambda v: gradient_flow(2, 1.0, RngStream(seed=1), step=v, max_iters=1)),
    ("make_triangular_profile", "weight_scale", planar.make_triangular_profile),
    ("planar_lattice_density", "beta", lambda v: planar.planar_lattice_density(v, 16)),
    ("planar_gaf_mc", "R", lambda v: planar_gaf_mc(v, 1.0, 14, 2, RngStream(seed=1))),
    ("planar_gaf_truncation", "R", planar_gaf_truncation),
    ("planar_gaf_truncation", "tol", lambda v: planar_gaf_truncation(1.0, v)),
    ("hyperbolic_discrepancy", "alpha", lambda v: hyperbolic_discrepancy(DiskFunction((1.0,)), 0.5, alpha=v)),
    ("hyperbolic_discrepancy", "beta", lambda v: hyperbolic_discrepancy(DiskFunction((1.0,)), 0.5, beta=v)),
    ("hyperbolic_gaf_truncation", "tol", lambda v: hyperbolic_gaf_truncation(0.5, v)),
    ("gaf_expected", "b", gaf_expected),
    ("_gaf_mc", "b", lambda v: planar_gaf_mc(1.0, v, 14, 2, RngStream(seed=1))),
]


NONNEGATIVE_ARGUMENTS = [  # (entry point, argument, the call with that argument set)
    ("fixed_point_solve", "tol", lambda v: fixed_point_solve(FockPolynomial((1.0, 0.3)), 0.5, 3, v)),
    ("gradient_flow", "tol", lambda v: gradient_flow(2, 1.0, RngStream(seed=1), max_iters=3, tol=v,
                                                     quad=_QUAD)),
]


@pytest.mark.parametrize("name, call", [entry[1:] for entry in NONNEGATIVE_ARGUMENTS],
                         ids=[f"{entry}-{name}" for entry, name, _ in NONNEGATIVE_ARGUMENTS])
def test_stopping_tolerances_must_be_nonnegative(name, call):
    # A negative or nan tolerance is refused, where before it ran to the cap with no error; 0 is
    # the documented way to run to the cap.
    for value in (-1.0, -math.inf, math.nan, np.float64(-1e-300)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be nonnegative, got {value}')}$"):
            call(value)
    call(0.0)


ITERATION_CAPS = [  # (entry point, least max_iters, the call with it set; tol = inf stops at once)
    ("gradient_flow", 0, lambda v: gradient_flow(2, 1.0, RngStream(seed=1), max_iters=v, tol=math.inf,
                                                 quad=_QUAD)),
    ("fixed_point_solve", 1, lambda v: fixed_point_solve(FockPolynomial((1.0,)), 0.5, v, math.inf)),
]


@pytest.mark.parametrize("least, call", [entry[1:] for entry in ITERATION_CAPS],
                         ids=[entry[0] for entry in ITERATION_CAPS])
def test_iteration_caps_are_bounded(least, call):
    # Each iteration keeps a history or trace entry, so the cap is bounded like the trial count;
    # the bound itself is accepted (and, at tol = inf, not run to).
    call(numerics._MAX_ITERS)
    for value in (least - 1, numerics._MAX_ITERS + 1, 10**12):
        message = f"^{re.escape(f'max_iters must be in [{least}, {numerics._MAX_ITERS}], got {value}')}$"
        with pytest.raises(ValueError, match=message):
            call(value)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("name, call", [entry[1:] for entry in POSITIVE_ARGUMENTS],
                         ids=[f"{entry}-{name}" for entry, name, _ in POSITIVE_ARGUMENTS])
def test_positive_arguments_name_the_value(name, call, value):
    # One check for every positive real argument; its message prints the value with str.
    message = f"^{re.escape(f'{name} must be positive, got {value}')}$"
    for v in (value, np.float64(value)):
        with pytest.raises(ValueError, match=message):
            call(v)
