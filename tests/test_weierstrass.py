"""Lattice special functions against lattice-sum/product oracles and identities."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from oracles import log_abs_sigma_jtheta, sigma_product, zeta_half_period_sum
from zeropack.planar import _log_profile_ladder, log_profile, make_triangular_profile
from zeropack.weierstrass import (
    DegenerateLatticeError,
    cell_coordinates,
    log_abs_sigma,
    log_abs_sigma_grid,
    make_context,
    quasi_period_residual,
    sigma,
)


def legendre_residual(ctx) -> float:
    return abs(ctx.eta1 * ctx.omega2 - ctx.eta2 * ctx.omega1 - 0.5j * math.pi)


class TestContext:
    def test_legendre_relation(self, profile, square_ctx):
        assert legendre_residual(profile.ctx) < 1e-12
        assert legendre_residual(square_ctx) < 1e-12

    def test_eta1_against_lattice_sum(self, profile, square_ctx):
        # Independent route: absolutely convergent pair-combined lattice sum.
        oracle = zeta_half_period_sum(profile.ctx.omega1, profile.ctx.omega2)
        assert abs(profile.ctx.eta1 - oracle) < 1e-12
        oracle_sq = zeta_half_period_sum(square_ctx.omega1, square_ctx.omega2)
        assert abs(square_ctx.eta1 - oracle_sq) < 1e-10

    def test_cell_coordinates_roundtrip(self, square_ctx):
        z = 0.3 - 1.7j
        s, t = cell_coordinates(square_ctx, z)
        back = 2.0 * square_ctx.omega1 * s + 2.0 * square_ctx.omega2 * t
        assert abs(complex(back) - z) < 1e-14

    def test_degenerate_lattices_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            make_context(0.0, 1.0j)
        with pytest.raises(DegenerateLatticeError):
            make_context(1.0, -1.0j)  # wrong orientation
        with pytest.raises(DegenerateLatticeError):
            make_context(1.0, 1.0 + 0.02j)  # |q| too close to 1


class TestSigma:
    def test_odd_function(self, profile, square_ctx):
        for ctx in (profile.ctx, square_ctx):
            for z in (0.21 + 0.13j, -0.4 + 0.77j, 1.3 - 0.9j):
                assert abs(sigma(ctx, -z) + sigma(ctx, z)) <= 1e-12 * abs(
                    sigma(ctx, z)
                )

    def test_behaves_like_z_at_origin(self, profile):
        for z in (1e-6, 1e-6j, (1 + 1j) * 1e-7):
            assert sigma(profile.ctx, z) / z == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_on_lattice(self, profile):
        ctx = profile.ctx
        assert log_abs_sigma(ctx, 0.0) == -math.inf
        # Nonzero lattice points land at the rounding floor of the series:
        # |sigma| at the ulp scale of nearby off-lattice values.
        for mp, np_ in ((1, 0), (0, 1), (2, -1), (-3, 2)):
            z = 2.0 * ctx.omega1 * mp + 2.0 * ctx.omega2 * np_
            nearby = float(log_abs_sigma(ctx, z + 0.31 + 0.17j))
            assert float(log_abs_sigma(ctx, z)) < nearby - 25.0

    def test_matches_truncated_product_oracle(self, profile):
        # 20 reproducible points in the fundamental cell, relative error 1e-8.
        ctx = profile.ctx
        radius = 400.0 * abs(profile.ctx.omega1)
        g = np.random.default_rng(2024)
        checked = 0
        while checked < 20:
            z = complex(g.uniform(-0.6, 0.6), g.uniform(-0.6, 0.6))
            if abs(z) < 0.05:
                continue
            reference = sigma_product(ctx.omega1, ctx.omega2, z, radius)
            assert abs(sigma(ctx, z) - reference) <= 1e-8 * abs(reference)
            checked += 1

    def test_log_abs_matches_jtheta_oracle(self, profile, square_ctx):
        # 40 seeded points in [-4, 4]^2 per lattice, inside and outside the
        # directly evaluated window, against 30-digit mpmath theta functions.
        for ctx in (profile.ctx, square_ctx):
            g = np.random.default_rng(61)
            zs = g.uniform(-4.0, 4.0, size=40) + 1j * g.uniform(-4.0, 4.0, size=40)
            s, t = cell_coordinates(ctx, zs)
            direct = (s >= -1.0) & (s <= 2.0) & (t >= -1.0) & (t <= 2.0)
            assert direct.any() and not direct.all()
            got = log_abs_sigma(ctx, zs)
            for z, value in zip(zs, got):
                reference = log_abs_sigma_jtheta(ctx.omega1, ctx.omega2, z)
                assert abs(value - reference) <= 1e-12, z

    def test_quasi_periodicity_100_points(self, profile, square_ctx):
        g = np.random.default_rng(7)
        for ctx in (profile.ctx, square_ctx):
            for _ in range(50):
                z = complex(g.uniform(-2.0, 2.0), g.uniform(-2.0, 2.0))
                assert quasi_period_residual(ctx, z, 1) < 1e-10
                assert quasi_period_residual(ctx, z, 2) < 1e-10

    def test_quasi_period_index_validated(self, profile):
        with pytest.raises(ValueError):
            quasi_period_residual(profile.ctx, 0.1 + 0.1j, 3)

    def test_log_abs_matches_pointwise(self, profile):
        ctx = profile.ctx
        zs = np.array([0.3 + 0.1j, -1.9 + 2.4j, 3.1 - 2.2j])
        batched = log_abs_sigma(ctx, zs)
        for z, lb in zip(zs, batched):
            assert lb == pytest.approx(
                math.log(abs(sigma(ctx, complex(z)))), rel=1e-12
            )

    def test_far_argument_stays_finite_in_log_space(self, profile):
        # sigma itself overflows near |z| ~ 30; the log form must not.
        val = float(log_abs_sigma(profile.ctx, 30.0 + 30.0j))
        assert math.isfinite(val)
        assert val > 700.0  # beyond direct exp() range


class TestSigmaGrid:
    """log_abs_sigma_grid on rhombus midpoint grids, the planar density's hot path."""

    @pytest.fixture(params=["equilateral", "square", "skew"])
    def ctx(self, request, profile, square_ctx):
        if request.param == "equilateral":
            return profile.ctx
        if request.param == "square":
            return square_ctx
        return make_context(1.0, 0.3 + 0.9j)

    @pytest.mark.parametrize("m, tol", [(16, 1e-12), (256, 1e-12), (1024, 1e-12), (8192, 1e-11)])
    def test_matches_jtheta_oracle(self, ctx, m, tol):
        # Corners and middles of the midpoint grid, including the nodes nearest
        # the lattice zeros at the rhombus corners, against 30-digit theta functions.
        nodes = (np.arange(m) + 0.5) / m
        idx = sorted({0, 1, m // 3, m // 2, m - 2, m - 1})
        got = log_abs_sigma_grid(ctx, nodes[idx], nodes[idx])
        assert got.shape == (len(idx), len(idx))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                z = 2.0 * ctx.omega1 * nodes[i] + 2.0 * ctx.omega2 * nodes[j]
                reference = log_abs_sigma_jtheta(ctx.omega1, ctx.omega2, z)
                assert abs(got[a, b] - reference) <= tol, (m, i, j)

    def test_rectangular_grid_matches_pointwise(self, ctx):
        # Rows follow s and columns follow t, over the whole direct window.
        s = np.array([-0.9, -0.2, 0.31, 1.2, 1.95])
        t = np.array([-0.7, 0.45, 1.8])
        got = log_abs_sigma_grid(ctx, s, t)
        assert got.shape == (5, 3)
        z = 2.0 * ctx.omega1 * s[:, None] + 2.0 * ctx.omega2 * t[None, :]
        np.testing.assert_allclose(got, log_abs_sigma(ctx, z), rtol=0.0, atol=1e-12)

    def test_origin_is_minus_infinity(self, profile):
        got = log_abs_sigma_grid(profile.ctx, np.array([0.0, 0.5]), np.array([0.0]))
        assert got[0, 0] == -math.inf and math.isfinite(got[1, 0])

    @pytest.mark.parametrize(
        "s, t",
        [([0.5, 2.5], [0.5]), ([0.5], [-1.5]), ([math.nan], [0.5]), ([[0.5]], [0.5])],
        ids=["s-above", "t-below", "nan", "not-1d"],
    )
    def test_outside_the_window_is_rejected(self, profile, s, t):
        with pytest.raises(ValueError, match="direct window"):
            log_abs_sigma_grid(profile.ctx, np.array(s), np.array(t))

    @pytest.mark.parametrize("weight_scale", [1.0, 0.5, 7.3])
    def test_planar_ladder_matches_pointwise_log_profile(self, weight_scale):
        # Every level of the cached 16-128 extrapolation ladder, read-only: one value per
        # symmetry orbit, at the representatives i <= j, i + j <= m - 1 in row-major order.
        p = make_triangular_profile(weight_scale)
        logs, counts, bounds, sizes = _log_profile_ladder(p, 128)
        assert sizes == (16, 32, 64, 128) and logs.size == 5560
        assert not logs.flags.writeable
        for a, b, m in zip(bounds, bounds[1:], sizes):
            i, j = np.array([(i, j) for i in range(m) for j in range(i, m) if i + j <= m - 1]).T
            Z = 2.0 * p.ctx.omega1 * (i + 0.5) / m + 2.0 * p.ctx.omega2 * (j + 0.5) / m
            np.testing.assert_allclose(logs[a:b], log_profile(p, Z), rtol=0.0, atol=1e-12)
            assert counts[a:b].sum() == m * m


def test_sigma_scaling_between_contexts():
    # Homogeneity: sigma(lambda z; lambda Lambda) = lambda sigma(z; Lambda).
    lam = 0.7
    a = make_context(0.9, 0.9 * cmath.exp(0.4j))
    b = make_context(lam * 0.9, lam * 0.9 * cmath.exp(0.4j))
    for z in (0.3 + 0.2j, -0.5 + 0.6j):
        assert sigma(b, lam * z) == pytest.approx(lam * sigma(a, z), rel=1e-12)
