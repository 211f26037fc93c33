"""Substrate checks: gamma, quadrature exactness, RNG reproducibility, threading."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from oracles import gauss_legendre_mp
from zeropack.hyperbolic import (
    DiskFunction,
    hyperbolic_discrepancy,
    make_disk_quadrature,
    tight_discrepancy,
)
from zeropack.numerics import (
    _MAX_THREADS,
    QuadratureRule1D,
    RngStream,
    _STIELTJES_MIN,
    _legendre_cosines,
    _legendre_stieltjes,
    _legendre_unit,
    _polar_values,
    gamma_real,
    gauss_legendre,
    map_indexed,
    resolve_threads,
    richardson,
    sample_complex_gaussians,
    sample_standard_complex_gaussian,
)


class TestGammaReal:
    def test_matches_factorial_on_integers(self):
        for n in range(1, 12):
            assert gamma_real(n) == pytest.approx(math.factorial(n - 1), rel=1e-15)

    def test_half_integer(self):
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma_real(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, 171.0, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            gamma_real(bad)


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

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule1D(nodes=np.zeros(3), weights=np.ones(4))
        with pytest.raises(ValueError):
            QuadratureRule1D(nodes=np.zeros(3), weights=np.array([1.0, -1.0, 1.0]))

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
        assert builds == 2  # n = 2048 and n = 7, each once

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
        z = sample_standard_complex_gaussian(RngStream(seed=9))
        batch = sample_complex_gaussians(RngStream(seed=9), 1)
        assert z == complex(batch[0])


class TestResolveThreads:
    def test_env_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("ZEROPACK_THREADS", "3")
        assert resolve_threads(8) == 3

    def test_flag_without_env(self):
        assert resolve_threads(2) == 2

    def test_default_is_machine(self):
        assert resolve_threads(None) >= 1

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("ZEROPACK_THREADS", "0")
        with pytest.raises(ValueError):
            resolve_threads(4)

    def test_invalid_flag(self):
        with pytest.raises(ValueError):
            resolve_threads(0)

    @pytest.mark.parametrize("count", [_MAX_THREADS + 1, 1000000])
    def test_counts_above_cap_are_rejected(self, monkeypatch, count):
        assert resolve_threads(_MAX_THREADS) == _MAX_THREADS
        with pytest.raises(ValueError, match="thread count"):
            resolve_threads(count)
        monkeypatch.setenv("ZEROPACK_THREADS", str(count))
        with pytest.raises(ValueError, match="ZEROPACK_THREADS"):
            resolve_threads(1)

    def test_map_indexed_rejects_counts_above_cap(self):
        calls = []
        with pytest.raises(ValueError, match="thread count"):
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


class TestRichardson:
    @pytest.mark.parametrize(
        "steps",
        [[1 / 16, 1 / 32, 1 / 64, 1 / 128], [1 / 12, 1 / 25, 1 / 50, 1 / 100]],
        ids=["halving", "uneven"],
    )
    @pytest.mark.parametrize("e", [0.25, 1.0, 3.7])
    def test_recovers_the_limit_of_a_power_series(self, steps, e):
        powers = [e + 2.0, e + 4.0, e + 6.0]
        c0, coeffs = 0.7, [1.3, -2.1, 0.9]
        values = [c0 + sum(c * h**p for c, p in zip(coeffs, powers)) for h in steps]
        limit, gap = richardson(values, steps, powers)
        assert limit == pytest.approx(c0, abs=1e-14)
        # Without the finest value and the last power, the h^{e+6} term is left in.
        coarser = richardson(values[:-1], steps[:-1], powers[:-1])[0]
        assert limit - gap == pytest.approx(coarser, abs=1e-15)

    def test_constant_sequence_is_its_own_limit(self):
        limit, gap = richardson([2.5] * 4, [1 / 8, 1 / 16, 1 / 32, 1 / 64], [3.0, 5.0, 7.0])
        assert limit == pytest.approx(2.5, abs=1e-14)
        assert abs(gap) <= 1e-14

    def test_no_powers_returns_the_finest_value(self):
        assert richardson([1.0, 3.0, 2.0], [0.5, 0.25, 0.125], []) == (2.0, -1.0)

    @pytest.mark.parametrize(
        "values, steps, powers",
        [([1.0, 2.0], [0.5], [1.0]), ([1.0, 2.0, 3.0], [0.5, 0.25, 0.125], [1.0]),
         ([1.0], [0.5], []), ([1.0, 2.0], [0.5, 0.25], [1.0, 2.0])],
        ids=["steps", "too-few-powers", "one-value", "too-many-powers"],
    )
    def test_mismatched_lengths_are_rejected(self, values, steps, powers):
        with pytest.raises(ValueError):
            richardson(values, steps, powers)


class TestPolarValues:
    @pytest.mark.parametrize("degree", [3, 63, 200])  # 63: one block; 200: folded mod 64
    def test_matches_polyval_on_disk_grid(self, degree):
        quad = make_disk_quadrature(0.9, 256, 64)
        parts = RngStream(seed=degree).generator().normal(size=(2, degree + 1))
        coeffs = parts[0] + 1j * parts[1]
        want = np.polynomial.polynomial.polyval(quad.grid(), coeffs)
        got = _polar_values(coeffs, np.zeros(degree + 1), np.sqrt(quad.u_nodes), 64)
        assert got.shape == (256, 64)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_log_scales_multiply_the_coefficients(self):
        coeffs = np.array([1.0, 2.0 - 1.0j, 0.5j, -3.0, 1.5, 0.25 + 0.25j])
        log_scales = np.array([0.0, -1.0, 2.0, 0.5, -0.3, 1.1])
        radii = np.array([0.2, 0.7, 1.3])
        got = _polar_values(coeffs, log_scales, radii, 4)  # degree 5 folds mod 4
        z = radii[:, None] * np.exp(0.5j * np.pi * np.arange(4))[None, :]
        want = np.polynomial.polynomial.polyval(z, coeffs * np.exp(log_scales))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
