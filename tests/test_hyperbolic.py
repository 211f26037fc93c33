"""Disk-candidate discrepancies, the GAF sampler, and the identity/inequality checks."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    annulus_power_mass,
    disk_constant_discrepancy,
    disk_monomial_closed_form,
    disk_monomial_discrepancy,
    disk_monomial_tight,
    disk_trapezoid_discrepancy,
    halfdisk_constant_sides,
)
from zeropack import hyperbolic
from zeropack.hyperbolic import (
    DiskFunction,
    InequalityReport,
    _gradient_magnitude,
    halfdisk_identity_check,
    hyperbolic_discrepancy,
    hyperbolic_gaf_expected,
    hyperbolic_gaf_mc,
    hyperbolic_gaf_tail,
    hyperbolic_gaf_truncation,
    inequality_suite,
    make_disk_quadrature,
    tight_discrepancy,
    weighted_square_mass,
)
from zeropack.numerics import RngStream, _polar_values, _term_scales, sample_complex_gaussians
from zeropack.planar import TruncationError, planar_gaf_expected


def disk(*coeffs) -> DiskFunction:
    return DiskFunction(coeffs=tuple(coeffs))


def disk_grid(quad) -> np.ndarray:
    """The rule's complex sample points sqrt(u_i) e^{2 pi i k / n_angular}, shape (n_radial, n_angular)."""
    angles = 2.0 * np.pi * np.arange(quad.n_angular) / quad.n_angular
    return np.sqrt(quad.u_nodes)[:, None] * np.exp(1j * angles)[None, :]


def _abs_on_circles(f: DiskFunction, radii, n_angular: int) -> np.ndarray:
    """|f| at n_angular uniform angles on every circle |z| = radii[i], in one pass."""
    c = f.array()
    scales = _term_scales(np.zeros(c.size), radii, n_angular)
    return np.abs(_polar_values(c, scales, *np.empty((2, len(radii), n_angular), dtype=complex)))


class TestDiskFunction:
    def test_values_match_direct_evaluation(self):
        f = disk(1.0, -2.0j, 0.5)
        z = 0.3 + 0.4j
        assert complex(f.values(z)) == pytest.approx(
            1.0 - 2.0j * z + 0.5 * z * z, rel=1e-15
        )

    def test_derivative(self):
        f = disk(1.0, 3.0, 0.0, -1.0)
        assert f.derivative().coeffs == (3.0 + 0.0j, 0.0 + 0.0j, -3.0 + 0.0j)
        assert disk(5.0).derivative().coeffs == (0.0 + 0.0j,)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskFunction(coeffs=())
        with pytest.raises(ValueError):
            disk(float("nan"))
        with pytest.raises(ValueError):
            DiskFunction(coeffs=tuple([1.0] * 4098))

    def test_is_zero(self):
        assert disk(0.0, 0.0).is_zero()
        assert not disk(0.0, 1e-30).is_zero()


class TestWeightedSquareMass:
    def test_monomial_closed_form(self):
        # |z^k|^2 (1-|z|^2) integrates to s^{k+1}/(k+1) - s^{k+2}/(k+2).
        s = 0.49
        got = weighted_square_mass(disk(0.0, 0.0, 1.0), math.sqrt(s))
        assert got == pytest.approx(s**3 / 3.0 - s**4 / 4.0, rel=1e-14)
        # At s = 1 the difference form cancels: 1/(k+1) - 1/(k+2) = 1/((k+1)(k+2)).
        for k in (1000, 4096):
            got = weighted_square_mass(disk(*[0.0] * k, 1.0), 1.0)
            assert got == pytest.approx(float(Fraction(1, (k + 1) * (k + 2))), rel=1e-15)

    def test_matches_quadrature_route(self, disk_quad_09, coeff_factory):
        f = DiskFunction(coeffs=coeff_factory(17, 7))
        area_weights = disk_quad_09.hyperbolic_weights * (1.0 - disk_quad_09.u_nodes)
        samples = np.abs(f.values(disk_grid(disk_quad_09))) ** 2 * (
            1.0 - disk_quad_09.u_nodes
        )[:, None]
        by_quad = area_weights @ samples.mean(axis=1)
        assert weighted_square_mass(f, 0.9) == pytest.approx(by_quad, rel=1e-12)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            weighted_square_mass(disk(1.0), 0.0)
        with pytest.raises(ValueError):
            weighted_square_mass(disk(1.0), 1.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_magnitudes_overflow_without_a_warning(self):
        # |c|^2 overflows while s^k underflows, and inf * 0 would read nan.
        with pytest.raises(OverflowError):
            weighted_square_mass(disk(0.0, 1e300), 1e-300)
        assert weighted_square_mass(disk(0.0, 1e150), 1e-75) == pytest.approx(1e300 * (1e-300 / 2.0), rel=1e-14)


class TestDiskQuadrature:
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_weight_sum_reproduces_hyperbolic_measure(self, r):
        q = make_disk_quadrature(r, n_radial=256, n_angular=64)
        total = -math.log1p(-r * r)
        assert float(q.hyperbolic_weights.sum()) == pytest.approx(total, rel=1e-13)

    def test_area_integration_of_one(self, disk_quad_half):
        # integral of dA over D(0, 1/2) is r^2 = 1/4; dA = (1-u) dA/(1-|z|^2).
        area_weights = disk_quad_half.hyperbolic_weights * (1.0 - disk_quad_half.u_nodes)
        assert float(area_weights.sum()) == pytest.approx(0.25, rel=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_disk_quadrature(1.0)
        with pytest.raises(ValueError):
            make_disk_quadrature(0.5, n_radial=2)
        with pytest.raises(ValueError):
            make_disk_quadrature(0.5, n_angular=2)

    def test_angles_are_uniform_by_construction(self):
        q = make_disk_quadrature(0.7, n_radial=8, n_angular=12)
        assert "angles" not in {f.name for f in dataclasses.fields(q)}
        assert q.n_angular == 12

    def test_quadrature_radius_must_match_request(self, disk_quad_half):
        with pytest.raises(ValueError):
            hyperbolic_discrepancy(disk(1.0), 0.9, quad=disk_quad_half)


@pytest.mark.filterwarnings("error")
class TestDiskRadius:
    """One check guards every disk radius, and every disk integral is normalized by the one span
    log(1/(1-r^2)) it returns, formed from r * r."""

    LEAST = 1.4916681462400413e-154  # the least double whose square is a normal double

    @pytest.mark.parametrize("r", [5e-324, 1e-300, 1e-160, math.nextafter(LEAST, 0.0)])
    def test_radius_whose_square_is_not_normal_is_rejected(self, r):
        f = disk(1.0, 0.5)
        calls = [lambda: hyperbolic_discrepancy(f, r), lambda: tight_discrepancy(f, r),
                 lambda: inequality_suite(f, r, [0.0]), lambda: make_disk_quadrature(r),
                 lambda: hyperbolic_gaf_tail(r, 4), lambda: hyperbolic_gaf_truncation(r),
                 lambda: hyperbolic_gaf_mc(r, 1.0, 4, 2, RngStream(seed=1))]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"r={r!r}")):
                call()

    def test_least_radius_is_accepted(self):
        assert self.LEAST * self.LEAST >= sys.float_info.min > math.nextafter(self.LEAST, 0.0) ** 2
        f = disk(1.0, 0.5)
        assert 0.0 <= hyperbolic_discrepancy(f, self.LEAST) < 1e-300  # |f| = 1 + O(r) on the disk
        mean, _ = hyperbolic_gaf_mc(self.LEAST, 1.0, 1, 2, RngStream(seed=1))
        assert math.isfinite(mean)

    # 0.37796883434360806 ** 2 and 0.37796883434360806 * 0.37796883434360806 differ by an ulp
    # where pow is not correctly rounded, and with them the two forms of the span.
    @pytest.mark.parametrize("r", [0.37796883434360806, 0.5, 0.9])
    def test_every_rule_records_the_span_it_was_built_on(self, r):
        span = -math.log1p(-r * r)
        for rule in (make_disk_quadrature(r, 64, 16), hyperbolic._panel_quadrature(disk(1.0, 2.0), r)):
            assert rule.normalization == span
            assert math.fsum(rule.hyperbolic_weights) == pytest.approx(span, rel=1e-14)


class TestHyperbolicDiscrepancy:
    def test_zero_candidate_gives_one(self, disk_quad_half):
        assert hyperbolic_discrepancy(
            disk(0.0), 0.5, quad=disk_quad_half
        ) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_constant_candidates_against_adaptive_oracle(self, c, r):
        got = hyperbolic_discrepancy(disk(c), r)
        assert got == pytest.approx(disk_constant_discrepancy(c, r), abs=1e-10)

    def test_general_exponents_against_adaptive_oracle(self):
        got = hyperbolic_discrepancy(disk(1.3), 0.9, alpha=1.5, beta=2.0)
        oracle = disk_constant_discrepancy(1.3, 0.9, alpha=1.5, beta=2.0)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_monomial_candidate_against_adaptive_oracle(self):
        got = hyperbolic_discrepancy(disk(0.0, 0.0, 3.0), 0.9)
        assert got == pytest.approx(disk_monomial_discrepancy(2, 3.0, 0.9), abs=1e-10)

    def test_diagonal_exponent_monotonicity(self, coeff_factory):
        # With alpha = beta the integrand is (t^beta - 1)^2 for the fixed
        # field t = (1-|z|^2)|f|, which is pointwise monotone in beta.
        f = DiskFunction(coeffs=coeff_factory(55, 5))
        values = [
            hyperbolic_discrepancy(f, 0.9, alpha=b, beta=b)
            for b in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hyperbolic_discrepancy(disk(1.0), 1.0)
        with pytest.raises(ValueError):
            hyperbolic_discrepancy(disk(1.0), 0.5, alpha=0.0)
        with pytest.raises(ValueError):
            hyperbolic_discrepancy(disk(1.0), 0.5, beta=-1.0)

    def test_resolution_stability(self, disk_quad_09):
        f = disk(1.0, 0.2, -0.1j, 0.05)
        full = hyperbolic_discrepancy(f, 0.9, quad=disk_quad_09)
        half = hyperbolic_discrepancy(f, 0.9, quad=make_disk_quadrature(0.9, 1024, 256))
        assert full == pytest.approx(half, abs=1e-6)


class TestBlockedDiskGrid:
    """hyperbolic_discrepancy, tight_discrepancy and halfdisk_identity_check visit the grid in
    blocks of circles; the reference evaluates the whole grid in one pass, as the functions did
    before; the tight annulus term is the exact orthogonality integral."""

    @pytest.mark.parametrize(  # the 2048 x 512 grid, and at 32 angles one full chunk of circles plus a part
        "n_radial, n_angular", [(2048, 512), (hyperbolic._DISK_POINTS // 32 + 36, 32)])
    def test_blocked_values_equal_one_pass(self, coeff_factory, n_radial, n_angular):
        f = DiskFunction(coeffs=coeff_factory(17, 40))
        r = 0.8
        quad = make_disk_quadrature(r, n_radial, n_angular)
        modulus = _abs_on_circles(f, np.sqrt(quad.u_nodes), n_angular)
        u = quad.u_nodes[:, None]
        plain = quad.hyperbolic_weights @ (((1.0 - u) ** 1.5 * modulus**0.75 - 1.0) ** 2).mean(axis=1)
        assert hyperbolic_discrepancy(f, r, 1.5, 0.75, quad=quad) == plain / quad.normalization

        inner = quad.hyperbolic_weights @ (((1.0 - u) * modulus - 1.0) ** 2).mean(axis=1)
        annulus = annulus_power_mass(f.coeffs, r * r, 1.0)
        assert tight_discrepancy(f, r, quad=quad) == pytest.approx(
            (inner + annulus) / quad.normalization, rel=1e-15)

        half = make_disk_quadrature(0.5, n_radial, n_angular)
        modulus = _abs_on_circles(f, np.sqrt(half.u_nodes), n_angular)
        u = half.u_nodes[:, None]
        mass = weighted_square_mass(f, 0.5)
        area_weights = half.hyperbolic_weights * (1.0 - half.u_nodes)
        b_f = float(area_weights @ modulus.mean(axis=1)) / math.sqrt(mass)
        q2 = float(area_weights @ ((1.0 - u) * modulus**2).mean(axis=1))
        lhs = b_f * b_f * (q2 / mass - 2.0) + half.normalization
        rhs = math.log(4.0 / 3.0) - b_f * b_f
        assert halfdisk_identity_check(f, quad=half) == (lhs, rhs, abs(lhs - rhs))

    def test_one_grid_pass_per_call(self, monkeypatch, disk_quad_half, coeff_factory):
        passes, rules = [], []
        circle_means, gauss_legendre = hyperbolic._circle_means, hyperbolic.gauss_legendre
        monkeypatch.setattr(hyperbolic, "_circle_means",
                            lambda *args: passes.append(args[1].size) or circle_means(*args))
        monkeypatch.setattr(hyperbolic, "gauss_legendre",
                            lambda *args: rules.append(args) or gauss_legendre(*args))
        f = DiskFunction(coeffs=coeff_factory(5, 7))
        tight_discrepancy(f, 0.5, quad=disk_quad_half)
        assert passes == [disk_quad_half.u_nodes.size] and rules == []
        halfdisk_identity_check(f, quad=disk_quad_half)
        assert passes == [disk_quad_half.u_nodes.size] * 2


SHAPES = ((1.0, 1.0), (1.5, 0.75), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0), (0.75, 1.5), (1.0, 0.5))


def _assert_agrees(got: float, want: float):
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (got, want)


def _assert_agrees_with_one_pass(f: DiskFunction, r: float, alpha: float, beta: float):
    """hyperbolic_discrepancy, tight_discrepancy and halfdisk_identity_check on the 2048 x 512
    grid against the same integrals with every circle at all 512 angles, in one pass."""
    quad = make_disk_quadrature(r)
    modulus = _abs_on_circles(f, np.sqrt(quad.u_nodes), quad.n_angular)
    u = quad.u_nodes[:, None]
    plain = quad.hyperbolic_weights @ (((1.0 - u) ** alpha * modulus**beta - 1.0) ** 2).mean(axis=1)
    _assert_agrees(hyperbolic_discrepancy(f, r, alpha, beta, quad=quad), plain / quad.normalization)
    inner = quad.hyperbolic_weights @ (((1.0 - u) * modulus - 1.0) ** 2).mean(axis=1)
    annulus = annulus_power_mass(f.coeffs, r * r, 1.0)
    _assert_agrees(tight_discrepancy(f, r, quad=quad), (inner + annulus) / quad.normalization)

    half = make_disk_quadrature(0.5)
    modulus = _abs_on_circles(f, np.sqrt(half.u_nodes), half.n_angular)
    mass = weighted_square_mass(f, 0.5)
    area_weights = half.hyperbolic_weights * (1.0 - half.u_nodes)
    b_f = float(area_weights @ modulus.mean(axis=1)) / math.sqrt(mass)
    q2 = float(area_weights @ ((1.0 - half.u_nodes[:, None]) * modulus**2).mean(axis=1))
    lhs = b_f * b_f * (q2 / mass - 2.0) + half.normalization
    rhs = math.log(4.0 / 3.0) - b_f * b_f
    for got, want in zip(halfdisk_identity_check(f, quad=half), (lhs, rhs, abs(lhs - rhs))):
        _assert_agrees(got, want)


class TestAnglesPerCircle:
    """Each circle starts at a count that cannot alias the top term and doubles until its mean
    settles, at most to n_angular; the values stay those of the full grid to roundoff."""

    @pytest.mark.parametrize("k", [7, 8, 15, 16, 31, 64, 200])
    def test_binomials_agree_with_one_pass(self, k):
        # |1 + z^k| depends on k theta alone: a count sharing a power of two with k sees few
        # distinct values, where a wrongly settled circle would show.
        f = disk(1.0, *[0.0] * (k - 1), 1.0)
        for r, (alpha, beta) in zip((0.9, 0.99), SHAPES[k % 7 :] + SHAPES):
            _assert_agrees_with_one_pass(f, r, alpha, beta)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_candidates_agree_with_one_pass(self, coeff_factory, seed):
        f = DiskFunction(coeffs=coeff_factory(400 + seed, 2 + 47 * seed // 19))  # degree 1 to 48
        for r in (0.5, 0.9, 0.99):
            _assert_agrees_with_one_pass(f, r, *SHAPES[seed % len(SHAPES)])

    @pytest.mark.parametrize("n_angular, ks", [(100, (2, 4)), (320, (32,)), (1000, (2, 8, 40)),
                                               (96, range(1, 48)), (48, range(1, 24))])
    def test_caps_with_odd_factors_settle_no_circle_falsely(self, n_angular, ks):
        # Under a cap of 100, 1 + z^2 would start at 25 angles; the 25 half-step angles give the
        # same 25 values of |f|, so the mean would settle at 50 angles, not 100.  A cap whose odd
        # part is at most 3 (96, 48) still halves, and must agree for every binomial it admits.
        quad = make_disk_quadrature(0.9, 100, n_angular)
        u = quad.u_nodes[:, None]
        for k in ks:
            f = disk(1.0, *[0.0] * (k - 1), 1.0)
            modulus = _abs_on_circles(f, np.sqrt(quad.u_nodes), n_angular)
            for alpha, beta in SHAPES[:3]:
                mismatch = ((1.0 - u) ** alpha * modulus**beta - 1.0) ** 2
                plain = quad.hyperbolic_weights @ mismatch.mean(axis=1)
                _assert_agrees(hyperbolic_discrepancy(f, 0.9, alpha, beta, quad=quad),
                               plain / quad.normalization)

    @staticmethod
    def _points(monkeypatch, call) -> int:
        """Grid points _polar_values evaluates during call()."""
        counted, polar_values = [], hyperbolic._polar_values
        monkeypatch.setattr(hyperbolic, "_polar_values",
                            lambda c, s, out, work: counted.append(out.size) or polar_values(c, s, out, work))
        call()
        return sum(counted)

    def test_never_more_than_the_full_grid(self, monkeypatch, coeff_factory):
        for degree, r in ((1, 0.5), (12, 0.9), (48, 0.99), (300, 0.9)):
            f = DiskFunction(coeffs=coeff_factory(degree, degree + 1))
            for quad in (make_disk_quadrature(r), make_disk_quadrature(r, 100, 96)):
                points = self._points(monkeypatch, lambda: hyperbolic_discrepancy(f, r, quad=quad))
                assert 0 < points <= quad.u_nodes.size * quad.n_angular

    @pytest.mark.parametrize("coeffs", [(1.3,), (0.0, 0.7), (0.0,) * 7 + (2.0,), (0.0,) * 15 + (0.5j,)])
    def test_constants_and_monomials_take_an_eighth(self, monkeypatch, disk_quad_09, coeffs):
        f = disk(*coeffs)
        points = self._points(monkeypatch, lambda: hyperbolic_discrepancy(f, 0.9, quad=disk_quad_09))
        assert points <= disk_quad_09.u_nodes.size * disk_quad_09.n_angular // 8

    @pytest.mark.parametrize("n_angular, per_circle",
                             [(512, 2 * 16), (96, 2 * 24), (100, 100), (320, 320), (15, 15), (8, 8)])
    def test_a_constant_settles_after_one_doubling_of_its_start(self, monkeypatch, n_angular,
                                                                per_circle):
        # the start is the least of n_angular / 2^k that is >= 16; a small cap, or one whose odd
        # part exceeds 3, is the start
        quad = make_disk_quadrature(0.9, 100, n_angular)
        points = self._points(monkeypatch, lambda: hyperbolic_discrepancy(disk(1.3), 0.9, quad=quad))
        assert points == 100 * per_circle

    @pytest.mark.parametrize("degree", [100, 200])
    def test_circles_at_the_cap_cost_the_full_grid(self, monkeypatch, disk_quad_09, coeff_factory,
                                                   degree):
        # degree 100 starts at 256 angles and doubles to the cap on every circle, 200 starts there
        f = DiskFunction(coeffs=coeff_factory(degree, degree + 1))
        points = self._points(monkeypatch, lambda: hyperbolic_discrepancy(f, 0.9, quad=disk_quad_09))
        assert points == disk_quad_09.u_nodes.size * disk_quad_09.n_angular


class TestPanelRule:
    """With quad=None each candidate gets its own radial rule: 128 Gauss-Legendre circles per panel
    in t = -log(1 - |z|^2), split at the candidate's zero moduli, each panel graded at both ends."""

    @staticmethod
    def _circles(monkeypatch, call) -> int:
        """Circles the disk integrals of call() average over."""
        counted, circle_means = [], hyperbolic._circle_means
        monkeypatch.setattr(hyperbolic, "_circle_means",
                            lambda *args: counted.append(args[1].size) or circle_means(*args))
        call()
        return sum(counted)

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.95])
    def test_monomials_meet_their_closed_forms(self, r):
        # |c z^k| = |c| u^(k/2): for odd k not smooth at u = 0, which the graded panel absorbs
        for k in range(1, 13):
            for c in (0.7, 1.3):
                got = hyperbolic_discrepancy(disk(*[0.0] * k, c), r)
                assert abs(got - disk_monomial_closed_form(k, c, r)) <= 1e-14, (k, c, got)

    @pytest.mark.parametrize("coeffs, r", [((1.0, 2.0), 0.9), ((1.0, 0.0, 0.0, 3.0), 0.95)],
                             ids=["1+2z", "1+3z^3"])
    def test_zeros_inside_meet_the_radially_exact_integral(self, coeffs, r):
        # The mean of |f| has a kink at each zero modulus; the 2048-node rule is off by ~2e-10 here.
        # gcd(k, 512) = 1: the 512 angles of the library and of the oracle see the same |f|.
        got = hyperbolic_discrepancy(disk(*coeffs), r)
        assert abs(got - disk_trapezoid_discrepancy(coeffs, r)) <= 1e-13

    def test_a_zero_modulus_off_the_rays_meets_the_radially_exact_integral(self):
        # 0.3 + z - 0.5i z^2 has a zero at modulus 0.29 between two of the 512 rays: the mean of |f|
        # has a kink at the edge of two panels, which the grading at both ends of each absorbs
        coeffs = (0.3, 1.0, -0.5j)
        got = hyperbolic_discrepancy(disk(*coeffs), 0.9)
        assert abs(got - disk_trapezoid_discrepancy(coeffs, 0.9)) <= 1e-14

    @pytest.mark.parametrize("coeffs, circles", [((1.3,), 128), ((0.0, 0.0, 0.0, 0.8j), 128),
                                                 ((1.0, 0.3), 128), ((1.0, 2.0), 256)],
                             ids=["constant", "monomial", "zero-outside", "zero-inside"])
    def test_one_panel_per_zero_modulus(self, monkeypatch, coeffs, circles):
        f = disk(*coeffs)
        assert self._circles(monkeypatch, lambda: hyperbolic_discrepancy(f, 0.9)) == circles

    def test_panel_edges_sit_at_the_zero_moduli(self):
        f = DiskFunction(coeffs=tuple(np.polynomial.polynomial.polyfromroots([0.3j, -0.6, 0.8, 1.5])))
        t = [-math.log1p(-x * x) for x in (0.0, 0.3, 0.6, 0.8, 0.9)]
        assert hyperbolic._panel_edges(f, 0.9) == pytest.approx(t, rel=1e-13)
        quad = hyperbolic._panel_quadrature(f, 0.9)
        assert quad.u_nodes.size == 4 * 128 and quad.n_angular == 512
        assert float(quad.hyperbolic_weights.sum()) == pytest.approx(t[-1], rel=1e-14)

    def test_equal_moduli_share_one_edge(self):
        # the three zeros of 1 + 3z^3 have one modulus, found to rounding
        assert hyperbolic._panel_edges(disk(1.0, 0.0, 0.0, 3.0), 0.95).size == 3

    def test_above_the_search_degree_the_panels_are_uniform(self, monkeypatch, coeff_factory):
        degree = hyperbolic._ZERO_SEARCH_MAX + 1
        f = DiskFunction(coeffs=coeff_factory(degree, degree + 1))
        monkeypatch.setattr(hyperbolic, "_polynomial_zeros", None)  # a call would raise
        edges = hyperbolic._panel_edges(f, 0.9)
        assert edges == pytest.approx(np.linspace(0.0, -math.log1p(-0.81), 17), rel=1e-15)
        assert self._circles(monkeypatch, lambda: hyperbolic_discrepancy(f, 0.9)) == 16 * 128

    def test_every_disk_integral_builds_the_rule_of_its_candidate(self, monkeypatch):
        f = disk(1.0, 2.0)  # zero modulus 1/2: two panels on D(0, 0.9), one on D(0, 1/2)
        assert self._circles(monkeypatch, lambda: tight_discrepancy(f, 0.9)) == 256
        assert self._circles(monkeypatch, lambda: halfdisk_identity_check(f)) == 128
        assert self._circles(monkeypatch, lambda: inequality_suite(f, 0.9, [0.1])) == 256

    def test_dilation_integral_meets_the_closed_form(self):
        # integral of |c z^k| over D(0, r), over r^2, is |c| r^k / (k/2 + 1)
        f = disk(0.0, 0.0, 0.0, 1.3)
        bound = math.sqrt(-math.log1p(-0.64)) / 0.64 * math.sqrt(weighted_square_mass(f, 1.0))
        rep = inequality_suite(f, 0.8, [0.1])
        assert rep.dilational_margin == pytest.approx(bound - 1.3 * 0.8**3 / 2.5, abs=1e-14)

    def test_no_lapack_call_on_the_default_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")
        for name in ("eig", "eigvals", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "roots", refuse)
        f = disk(1.0, 2.0, -0.5j, 0.7)
        hyperbolic_discrepancy(f, 0.9)
        tight_discrepancy(f, 0.9)
        halfdisk_identity_check(f)
        inequality_suite(f, 0.9, [0.1])


class TestTightDiscrepancy:
    def test_monomial_against_adaptive_oracle(self):
        for k, a, r in ((0, 1.0, 0.5), (1, 2.0, 0.9), (3, 0.7, 0.8)):
            coeffs = [0.0] * k + [a]
            got = tight_discrepancy(DiskFunction(coeffs=tuple(coeffs)), r)
            assert got == pytest.approx(disk_monomial_tight(k, a, r), abs=1e-9)

    def test_annulus_equals_closed_form_mass(self, coeff_factory):
        # Dual route for the annulus term: quadrature result vs the exact
        # coefficient-orthogonality integral.
        r = 0.8
        f = DiskFunction(coeffs=coeff_factory(23, 6))
        gap = tight_discrepancy(f, r) - hyperbolic_discrepancy(f, r)
        closed = annulus_power_mass(f.coeffs, r * r, 1.0) / (-math.log1p(-r * r))
        assert gap == pytest.approx(closed, rel=1e-9)

    def test_dominates_plain_discrepancy(self, coeff_factory):
        for seed in (1, 2, 3):
            f = DiskFunction(coeffs=coeff_factory(seed, 4))
            assert tight_discrepancy(f, 0.9) >= hyperbolic_discrepancy(f, 0.9)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            tight_discrepancy(disk(1.0), 0.0)


@pytest.mark.filterwarnings("error")
def test_overflowing_candidate_is_an_arithmetic_error():
    quad = make_disk_quadrature(0.5, 64, 16)
    with pytest.raises(ArithmeticError, match="overflow"):
        hyperbolic_discrepancy(disk(1e300), 0.5, quad=quad)
    with pytest.raises(ArithmeticError, match="overflow"):
        tight_discrepancy(disk(1e200), 0.5, quad=quad)


class TestGafClosedForms:
    def test_expected_minimum(self):
        b = math.sqrt(math.pi) / 2.0
        assert hyperbolic_gaf_expected(b) == pytest.approx(
            1.0 - math.pi / 4.0, rel=1e-15
        )
        assert hyperbolic_gaf_expected(1.0) == pytest.approx(
            2.0 - math.sqrt(math.pi), rel=1e-15
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_expected_discrepancy_overflow_is_an_arithmetic_error(self):
        assert math.isfinite(hyperbolic_gaf_expected(1e154))
        for front in (hyperbolic_gaf_expected, planar_gaf_expected):
            with pytest.raises(OverflowError, match="overflows"):
                front(1e300)

    def test_tail_formula_matches_brute_sum(self):
        r, N = 0.9, 40
        x = r * r
        brute = (1.0 - x) ** 2 * sum(
            (j + 1) * x**j for j in range(N + 1, N + 4000)
        )
        assert hyperbolic_gaf_tail(r, N) == pytest.approx(brute, rel=1e-12)

    def test_truncation_is_minimal(self):
        r = 0.95
        N = hyperbolic_gaf_truncation(r, 1e-6)
        assert hyperbolic_gaf_tail(r, N) < 1e-6
        assert hyperbolic_gaf_tail(r, N - 1) >= 1e-6

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
    def test_truncation_matches_the_linear_search(self, r, tol):
        # The search the bisection replaces: every degree in turn, from 1.
        N = 1
        while hyperbolic_gaf_tail(r, N) >= tol:
            N += 1
        assert hyperbolic_gaf_truncation(r, tol) == N

    def test_truncation_beyond_the_degree_limit(self):
        assert hyperbolic_gaf_tail(0.99999, 199_999) >= 1e-6
        with pytest.raises(TruncationError):
            hyperbolic_gaf_truncation(0.99999)

class TestGafMonteCarlo:
    def test_reproducible_and_thread_independent(self):
        N = hyperbolic_gaf_truncation(0.8, 1e-6)
        a = hyperbolic_gaf_mc(0.8, 1.0, N, 6, RngStream(seed=9), threads=1)
        b = hyperbolic_gaf_mc(0.8, 1.0, N, 6, RngStream(seed=9), threads=3)
        assert a == b

    def test_thread_independent_above_the_thread_floor(self):
        # 160 x 128 points: the trials do split across threads here.
        N = hyperbolic_gaf_truncation(0.8, 1e-6)
        grid = {"n_radial": 160, "n_angular": 128}
        a = hyperbolic_gaf_mc(0.8, 1.0, N, 6, RngStream(seed=9), threads=1, **grid)
        b = hyperbolic_gaf_mc(0.8, 1.0, N, 6, RngStream(seed=9), threads=3, **grid)
        assert a == b

    def test_agrees_with_closed_form_expectation(self):
        r, b = 0.9, 1.0
        N = hyperbolic_gaf_truncation(r, 1e-6)
        mean, stderr = hyperbolic_gaf_mc(
            r, b, N, 100, RngStream(seed=77), threads=4
        )
        assert abs(mean - hyperbolic_gaf_expected(b)) < 4.0 * stderr

    def test_trials_match_direct_polynomial_evaluation(self):
        r, b = 0.9, 0.8
        N = hyperbolic_gaf_truncation(r)
        rng = RngStream(seed=17)
        mean, stderr = hyperbolic_gaf_mc(r, b, N, 2, rng, n_radial=8, n_angular=16)
        quad = make_disk_quadrature(r, 8, 16)
        weight = (1.0 - quad.u_nodes)[:, None]
        # Control term c (A - E A): A is the same quadrature of (1-|z|^2)^2 |G|^2, and
        # E (1-|z|^2)^2 |G(z)|^2 = (1-|z|^2)^2 sum_{j<=N} (j+1) |z|^{2j} for the truncated series.
        c = b * b - b * math.sqrt(math.pi) / 2.0
        k = np.arange(N + 1)
        series = (1.0 - quad.u_nodes) ** 2 * ((k + 1.0) * quad.u_nodes[:, None] ** k).sum(axis=1)
        mean_a = float(quad.hyperbolic_weights @ series) / quad.normalization
        trials = []
        for i in range(2):
            coeffs = sample_complex_gaussians(rng.substream(i), N + 1) * np.sqrt(k + 1.0)
            modulus = np.abs(DiskFunction(coeffs=tuple(coeffs)).values(disk_grid(quad)))
            mismatch = (b * weight * modulus - 1.0) ** 2
            a = quad.hyperbolic_weights @ ((weight * modulus) ** 2).mean(axis=1) / quad.normalization
            trials.append(
                quad.hyperbolic_weights @ mismatch.mean(axis=1) / quad.normalization - c * (a - mean_a))
        assert mean == pytest.approx(0.5 * (trials[0] + trials[1]), abs=1e-12)
        assert stderr == pytest.approx(0.5 * abs(trials[0] - trials[1]), abs=1e-12)

    def test_validation(self):
        with pytest.raises(TruncationError):
            hyperbolic_gaf_mc(0.95, 1.0, 10, 4, RngStream(seed=1))
        with pytest.raises(ValueError):
            hyperbolic_gaf_mc(0.8, 1.0, 60, 1, RngStream(seed=1))
        with pytest.raises(ValueError):
            hyperbolic_gaf_mc(0.8, 0.0, 60, 4, RngStream(seed=1))
        for name in ("n_radial", "n_angular"):
            with pytest.raises(ValueError, match=f"^{name} must be >= 4, got 2$"):
                hyperbolic_gaf_mc(0.8, 1.0, 60, 4, RngStream(seed=1), **{name: 2})


class TestHalfdiskIdentity:
    def test_constant_candidate_against_adaptive_oracle(self):
        lhs, rhs, residual = halfdisk_identity_check(disk(3.0))
        o_lhs, o_rhs = halfdisk_constant_sides(3.0)
        assert lhs == pytest.approx(o_lhs, abs=1e-10)
        assert rhs == pytest.approx(o_rhs, abs=1e-10)
        assert residual < 1e-12

    def test_scale_invariance(self):
        # The normalization step makes the identity scale-free.
        _, _, r1 = halfdisk_identity_check(disk(1.0, 0.5j))
        _, _, r2 = halfdisk_identity_check(disk(100.0, 50.0j))
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_random_candidates_satisfy_identity(self, coeff_factory):
        for seed in range(5):
            f = DiskFunction(coeffs=coeff_factory(300 + seed, 9))
            _, _, residual = halfdisk_identity_check(f)
            assert residual < 1e-6

    def test_zero_candidate_rejected(self):
        with pytest.raises(ValueError):
            halfdisk_identity_check(disk(0.0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_candidate_is_an_overflow_error(self):
        with pytest.raises(OverflowError, match="overflow"):
            halfdisk_identity_check(disk(1e200))

    def test_gap_sees_quadrature_error(self, coeff_factory):
        # 8 angles alias |f|^2 of a degree-12 candidate: the quadrature misses the exact mass.
        f = DiskFunction(coeffs=coeff_factory(12, 13))
        _, _, gap = halfdisk_identity_check(f, quad=make_disk_quadrature(0.5, 8, 8))
        assert gap > 1e-10


class TestInequalitySuite:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c, z", [(1e200, 0.1), (1e150, 0.4999)])  # the mass, the bounds
    def test_overflowing_candidate_is_an_overflow_error(self, c, z):
        with pytest.raises(OverflowError, match="overflow"):
            inequality_suite(disk(c), 0.5, [z])

    # Below r = 1e-32, gap**3 and gap**5 underflowed; q = gap / r^2 lies in (0, 1].  At z = 0
    # the bounds are 2, 24/r^2 and about 5/r, less |f(0)|^2 = 1, |f'(0)|^2 = 1/4 and 1/2.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [1e-40, 1e-100, 1e-150])
    def test_tiny_radius_keeps_finite_margins(self, r):
        rep = inequality_suite(disk(1.0, 0.5), r, [0.0])
        assert rep.all_ok
        assert rep.value_margin == pytest.approx(1.0, rel=1e-12)
        assert rep.derivative_margin == pytest.approx(24.0 / r / r, rel=1e-12)
        assert rep.gradient_margin == pytest.approx(5.0 / r, rel=1e-12)
        assert math.isfinite(rep.dilational_margin)

    @pytest.mark.parametrize("r", [0.05, 0.5, 0.9, 0.99])
    def test_bounds_match_their_direct_forms(self, r, coeff_factory):
        f = DiskFunction(coeffs=coeff_factory(17, 4))
        z = r * np.array([0.0, 0.3, -0.55j, 0.4 + 0.5j, 0.9])
        mass = weighted_square_mass(f, r)
        gap = r * r - np.abs(z) ** 2
        fd = f.derivative()
        direct = (
            np.min(2.0 * r**4 / gap**3 * mass - np.abs(f.values(z)) ** 2),
            np.min(24.0 * r**6 / gap**5 * mass - np.abs(fd.values(z)) ** 2),
            np.min((8.0 + 5.0 * (1.0 - r * r) / gap) * r**3 / gap**1.5 * math.sqrt(mass)
                   - _gradient_magnitude(f, z, fd)),
        )
        rep = inequality_suite(f, r, z)
        got = (rep.value_margin, rep.derivative_margin, rep.gradient_margin)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_known_candidates_pass_everywhere(self):
        points = [0.2 + 0.1j, -0.3j, 0.35, -0.2 - 0.25j]
        for f in (disk(1.0), disk(0.0, 1.0), disk(1.0, 1.0, 0.5j)):
            rep = inequality_suite(f, 0.5, points)
            assert rep.all_ok
            assert rep.points_checked == 4

    MARGINS = ("value_margin", "derivative_margin", "gradient_margin", "dilational_margin")

    @pytest.mark.parametrize("negative", MARGINS)
    def test_any_negative_margin_fails_the_verdict(self, negative):
        margins = dict.fromkeys(self.MARGINS, 0.0)
        assert InequalityReport(**margins, points_checked=1).all_ok
        margins[negative] = -1e-300
        assert not InequalityReport(**margins, points_checked=1).all_ok

    def test_gradient_magnitude_matches_finite_differences(self, coeff_factory):
        f = DiskFunction(coeffs=coeff_factory(91, 5))

        def weighted(z: complex) -> float:
            return (1.0 - abs(z) ** 2) * abs(complex(f.values(z)))

        h = 1e-7
        for z in (0.3 + 0.2j, -0.1 + 0.4j, 0.25 - 0.33j):
            gx = (weighted(z + h) - weighted(z - h)) / (2.0 * h)
            gy = (weighted(z + 1j * h) - weighted(z - 1j * h)) / (2.0 * h)
            assert math.hypot(gx, gy) == pytest.approx(
                _gradient_magnitude(f, z), abs=1e-6
            )

    def test_derivative_is_built_once(self, monkeypatch):
        f, points = disk(1.0, 1.0, 0.5j), [0.2 + 0.1j, -0.3j, 0.35, -0.2 - 0.25j]
        for z in points:
            assert _gradient_magnitude(f, z, f.derivative()) == _gradient_magnitude(f, z)
        calls = []
        derivative = DiskFunction.derivative
        monkeypatch.setattr(DiskFunction, "derivative", lambda g: calls.append(g) or derivative(g))
        inequality_suite(f, 0.5, points)
        assert calls == [f]

    def test_zero_of_candidate_uses_fallback_bound(self):
        # f(0) = 0 exercises the non-differentiable-point branch.
        rep = inequality_suite(disk(0.0, 1.0), 0.5, [0.0])
        assert rep.gradient_margin >= 0.0

    def test_point_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            inequality_suite(disk(1.0), 0.5, [0.6])
        with pytest.raises(ValueError):
            inequality_suite(disk(1.0), 0.5, [])
        with pytest.raises(ValueError, match="flat, non-empty sequence of test points"):
            inequality_suite(disk(1.0), 0.5, 0.1)

    def test_points_may_come_from_any_iterable(self):
        for points in ([0.1, 0.2j], (0.1, 0.2j), (z for z in (0.1, 0.2j)), np.array([0.1, 0.2j])):
            assert inequality_suite(disk(1.0), 0.5, points).points_checked == 2
