"""Triangular-lattice profile density, its invariances, and the planar GAF MC."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeropack.numerics import RngStream, _polar_values, sample_complex_gaussians
from zeropack.planar import (
    _MAX_GRID,
    TruncationError,
    _log_profile_mean,
    _rhombus_blocks,
    density_curve,
    log_profile,
    make_triangular_profile,
    planar_gaf_expected,
    planar_gaf_mc,
    planar_gaf_tail,
    planar_gaf_truncation,
    planar_lattice_density,
    profile_value,
    torus_monopole,
)


class TestProfileConstruction:
    def test_spacing_normalizes_cell_area(self, profile):
        # 2*alpha = sqrt(pi)/3^{1/4} makes the rhombus area exactly 1/2
        # in the dA = dx dy / pi normalization.
        assert profile.alpha == pytest.approx(
            math.sqrt(math.pi) / (2.0 * 3.0**0.25), rel=1e-15
        )
        assert profile.cell_area == pytest.approx(0.5, abs=1e-15)

    def test_weight_scale_validation(self):
        with pytest.raises(ValueError):
            make_triangular_profile(0.0)
        with pytest.raises(ValueError):
            make_triangular_profile(-2.0)

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.02, 0.98), t=st.floats(0.02, 0.98))
    def test_profile_is_doubly_periodic(self, s, t):
        # The quadratic twist eta is exactly what cancels the quasi-period
        # growth of sigma, so log P must repeat on the lattice.
        p = make_triangular_profile()
        z = 2.0 * p.ctx.omega1 * s + 2.0 * p.ctx.omega2 * t
        base = float(log_profile(p, z))
        for dm, dn in ((1, 0), (0, 1), (-1, 2)):
            shifted = z + 2.0 * p.ctx.omega1 * dm + 2.0 * p.ctx.omega2 * dn
            assert float(log_profile(p, shifted)) == pytest.approx(
                base, abs=2e-11
            )

    def test_profile_value_positive_off_lattice(self, profile):
        assert profile_value(profile, 0.3 + 0.2j) > 0.0
        assert profile_value(profile, 0.0) == 0.0  # lattice zero


class TestLatticeDensity:
    def test_headline_beta_one(self, profile):
        rep = planar_lattice_density(1.0, 256, profile=profile)
        assert rep.rho == pytest.approx(0.0612035, abs=1e-5)
        assert rep.error_estimate < 1e-5

    def test_moment_consistency_between_exponents(self, profile):
        # The 2*beta first moment is the beta second moment on the same grid.
        a = planar_lattice_density(1.0, 128, profile=profile)
        b = planar_lattice_density(2.0, 128, profile=profile)
        assert a.m2 == pytest.approx(b.m1, rel=1e-14)

    def test_weight_scale_invariance(self):
        # Rescaling the weight and the lattice together is an exact symmetry
        # of the density; the midpoint grid maps onto itself, so the values
        # agree to rounding.
        base = planar_lattice_density(1.5, 128, profile=make_triangular_profile(1.0))
        for c in (0.5, 2.0, 7.3):
            other = planar_lattice_density(
                1.5, 128, profile=make_triangular_profile(c)
            )
            assert other.rho == pytest.approx(base.rho, abs=1e-10)

    def test_profile_fn_hook_constant_gives_zero(self):
        rep = planar_lattice_density(1.0, 64, profile_fn=lambda z: np.full(z.shape, 2.5))
        assert abs(rep.rho) < 1e-14
        assert rep.b_opt == pytest.approx(1.0 / 2.5, rel=1e-12)

    def test_profile_fn_hook_matches_direct_average(self, profile):
        def field(z):
            return 1.0 + 0.5 * np.cos(z.real) ** 2

        rep = planar_lattice_density(2.0, 64, profile=profile, profile_fn=field)
        p1 = 2.0 * profile.ctx.omega1
        p2 = 2.0 * profile.ctx.omega2
        s = (np.arange(64) + 0.5) / 64
        Z = p1 * s[None, :] + p2 * s[:, None]
        vals = field(Z)
        m1 = float(np.mean(vals**2.0))
        m2 = float(np.mean(vals**4.0))
        assert rep.m1 == pytest.approx(m1, rel=1e-13)
        assert rep.m2 == pytest.approx(m2, rel=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            planar_lattice_density(0.0, 64)
        with pytest.raises(ValueError):
            planar_lattice_density(1.0, 8)

    def test_grid_above_cap_is_rejected_before_any_work(self):
        calls = []
        with pytest.raises(ValueError, match="grid_m"):
            planar_lattice_density(1.0, _MAX_GRID + 1, profile_fn=calls.append)
        assert calls == []

    @pytest.mark.parametrize("m, rows", [(64, 64), (1024, 64), (2048, 32), (8192, 8), (100000, 1)])
    def test_blocks_are_sized_by_point_count(self, profile, m, rows):
        # Up to grid 1024 the blocks keep their 64 rows, so those sums are unchanged.
        block = next(_rhombus_blocks(profile, m))
        assert block.shape == (rows, m)


class TestDensityCurve:
    def test_rows_match_individual_calls(self, profile):
        rows = density_curve([0.5, 1.0], 64, profile=profile)
        solo = planar_lattice_density(0.5, 64, profile=profile)
        assert rows[0][0] == 0.5
        assert rows[0][1].rho == solo.rho

    def test_input_validation(self):
        with pytest.raises(ValueError):
            density_curve([], 64)
        with pytest.raises(ValueError):
            density_curve([1.0, 1.0], 64)
        with pytest.raises(ValueError):
            density_curve([2.0, 1.0], 64)
        with pytest.raises(ValueError):
            density_curve([-1.0, 1.0], 64)


class TestPlanarGaf:
    def test_expected_value_minimum(self):
        b = math.sqrt(math.pi) / 2.0
        assert planar_gaf_expected(b) == pytest.approx(1.0 - math.pi / 4.0, rel=1e-15)
        assert planar_gaf_expected(b - 0.05) > planar_gaf_expected(b)
        assert planar_gaf_expected(b + 0.05) > planar_gaf_expected(b)
        with pytest.raises(ValueError):
            planar_gaf_expected(0.0)

    def test_tail_bound_decreasing_and_truncation_minimal(self):
        R = 3.0
        N = planar_gaf_truncation(R, 1e-8)
        assert planar_gaf_tail(R, N) < 1e-8
        assert planar_gaf_tail(R, N - 1) >= 1e-8
        assert planar_gaf_tail(R, N + 10) < planar_gaf_tail(R, N)

    def test_mc_reproducible_and_thread_independent(self):
        R, b = 2.0, 1.0
        N = planar_gaf_truncation(R)
        rng = RngStream(seed=31)
        m1, s1 = planar_gaf_mc(R, b, N, 8, rng, threads=1)
        m2, s2 = planar_gaf_mc(R, b, N, 8, rng, threads=4)
        assert (m1, s1) == (m2, s2)
        m3, _ = planar_gaf_mc(R, b, N, 8, RngStream(seed=31), threads=2)
        assert m3 == m1

    def test_mc_agrees_with_closed_form_expectation(self):
        R = 3.0
        b = math.sqrt(math.pi) / 2.0
        N = planar_gaf_truncation(R)
        mean, stderr = planar_gaf_mc(R, b, N, 120, RngStream(seed=208), threads=4)
        assert abs(mean - (1.0 - math.pi / 4.0)) < 4.0 * stderr

    def test_mc_validation(self):
        with pytest.raises(ValueError):
            planar_gaf_mc(2.0, 1.0, 40, 1, RngStream(seed=1))
        for b in (0.0, -1.0):
            with pytest.raises(ValueError):
                planar_gaf_mc(2.0, b, 40, 4, RngStream(seed=1))
        with pytest.raises(TruncationError):
            planar_gaf_mc(4.0, 1.0, 5, 4, RngStream(seed=1))


def _mp_planar_gaf(eta, z):
    """F(z) = sum eta_j 2^{j/2} z^j / sqrt(j!) summed in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        term = mpmath.mpf(1)  # 2^{j/2} z^j / sqrt(j!)
        total = mpmath.mpc(0)
        for j, e in enumerate(eta):
            total += mpmath.mpc(e.real, e.imag) * term
            term *= mpmath.sqrt(mpmath.mpf(2) / (j + 1)) * z
        return complex(total)


class TestPlanarGafLargeRadius:
    """At R = 12 (N = 388) the scales 2^{j/2}/sqrt(j!) underflow in double from
    j = 356 on, while their products with |z|^j still matter near |z| = R."""

    R = 12.0

    def test_grid_values_match_mpmath(self):
        N = planar_gaf_truncation(self.R)
        eta = sample_complex_gaussians(RngStream(seed=3).substream(0), N + 1)
        j = np.arange(N + 1)
        log_scales = 0.5 * (j * math.log(2.0) - np.array([math.lgamma(k + 1.0) for k in j]))
        radii = np.array([0.5, 6.0, 11.5, 11.97])
        F = _polar_values(eta, log_scales, radii, 256)
        for i, k in [(0, 3), (1, 100), (2, 12), (3, 0), (3, 201)]:
            z = radii[i] * complex(math.cos(2 * math.pi * k / 256), math.sin(2 * math.pi * k / 256))
            want = _mp_planar_gaf(eta, z)
            assert abs(F[i, k] - want) * math.exp(-radii[i] ** 2) <= 1e-12

    def test_trials_match_mpmath_quadrature(self):
        R, b, n_radial, n_angular = self.R, 0.9, 4, 8
        N = planar_gaf_truncation(R)
        rng = RngStream(seed=17)
        mean, stderr = planar_gaf_mc(R, b, N, 2, rng, n_radial=n_radial, n_angular=n_angular)
        x, w = np.polynomial.legendre.leggauss(n_radial)
        nodes, weights = 0.5 * R * (x + 1.0), 0.5 * R * w
        trials = []
        for i in range(2):
            eta = sample_complex_gaussians(rng.substream(i), N + 1)
            total = 0.0
            for r, wr in zip(nodes, weights):
                ring = sum(
                    (b * abs(_mp_planar_gaf(eta, r * np.exp(2j * math.pi * k / n_angular)))
                     * math.exp(-r * r) - 1.0) ** 2
                    for k in range(n_angular)
                )
                total += wr * r * ring
            trials.append(2.0 * total / (R * R * n_angular))
        assert mean == pytest.approx(0.5 * (trials[0] + trials[1]), abs=1e-12)
        assert stderr == pytest.approx(0.5 * abs(trials[0] - trials[1]), abs=1e-12)


class TestTorusMonopole:
    def test_is_centered_log_profile_of_difference(self, profile):
        z, w = 0.4 + 0.1j, 0.1 - 0.2j
        got = torus_monopole(profile, z, w)
        expected = float(log_profile(profile, z - w)) - _log_profile_mean(
            profile, 256
        )
        assert got == expected

    def test_depends_only_on_displacement(self, profile):
        shift = 0.07 - 0.23j
        a = torus_monopole(profile, 0.31 + 0.12j, 0.05 + 0.02j)
        b = torus_monopole(profile, 0.31 + 0.12j + shift, 0.05 + 0.02j + shift)
        assert a == pytest.approx(b, abs=1e-12)

    def test_periodic_in_first_argument(self, profile):
        p1 = 2.0 * profile.ctx.omega1
        a = torus_monopole(profile, 0.2 + 0.3j, 0.0)
        b = torus_monopole(profile, 0.2 + 0.3j + p1, 0.0)
        assert a == pytest.approx(b, abs=1e-10)

    def test_centering_constant_converges(self, profile):
        assert _log_profile_mean(profile, 256) == pytest.approx(
            _log_profile_mean(profile, 512), abs=1e-3
        )
