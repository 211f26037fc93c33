"""Cubic projection in the Gaussian-weighted polynomial space and its fixed points."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fock_projection_coefficients, fock_projection_triple_sum
from zeropack.fock import (
    DivergenceError,
    FockOverflowError,
    FockPolynomial,
    cubic_projection,
    fixed_point_solve,
    fock_norm,
    stationary_residual,
)
from zeropack.numerics import RngStream, sample_complex_gaussians


def poly(*coeffs) -> FockPolynomial:
    return FockPolynomial(coeffs=tuple(coeffs))


def _count_records(monkeypatch) -> list:
    """The coefficients of every FockPolynomial built from now on, in order of construction."""
    built, check = [], FockPolynomial.__post_init__

    def counted(self):
        check(self)
        built.append(self.coeffs)

    monkeypatch.setattr(FockPolynomial, "__post_init__", counted)
    return built


class TestFockPolynomial:
    def test_degree_and_array(self):
        f = poly(1.0, 0.0, 2.0j)
        assert f.degree == 2
        assert np.array_equal(f.array(), np.array([1.0, 0.0, 2.0j]))

    def test_empty_becomes_zero_constant(self):
        assert FockPolynomial(coeffs=()).coeffs == (0.0 + 0.0j,)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            poly(1.0, float("inf"))
        with pytest.raises(ValueError):
            poly(complex(0.0, float("nan")))


class TestFockNorm:
    def test_monomial_norms_are_factorials(self):
        for k in (0, 1, 3, 7):
            f = poly(*([0.0] * k + [1.0]))
            assert fock_norm(f) == pytest.approx(
                math.sqrt(math.factorial(k)), rel=1e-13
            )

    def test_pythagoras_across_degrees(self):
        f = poly(3.0, 0.0, 0.0, 2.0j)
        assert fock_norm(f) == pytest.approx(math.sqrt(9.0 + 4.0 * 6.0), rel=1e-13)

    def test_zero_polynomial(self):
        assert fock_norm(poly(0.0, 0.0)) == 0.0

    def test_overflow_raises(self):
        # |c|^2 * 128! exceeds double range for |c| = 1e250.
        with pytest.raises(FockOverflowError):
            fock_norm(poly(*([0.0] * 128 + [1e250])))


class TestCubicProjection:
    def test_linear_fixed_point_quarter(self):
        # The degree-one monomial maps to exactly a quarter of itself.
        assert cubic_projection(poly(0.0, 1.0)).coeffs == (0j, 0.25, 0j)
        assert stationary_residual(poly(0.0, 1.0), 0.25) < 1e-14

    @pytest.mark.parametrize("k", [0, 7, 33, 64])
    def test_monomial_closed_form(self, k):
        # z^k maps to (2k)! / (2^{2k+1} k!) z^k; k = 64 is the degree cap.
        g = cubic_projection(poly(*([0.0] * k + [1.0]))).array()
        exact = Fraction(math.factorial(2 * k), 2 ** (2 * k + 1) * math.factorial(k))
        assert len(g) == 2 * k + 1
        assert g[k] == pytest.approx(float(exact), rel=1e-12)
        assert np.all(np.delete(g, k) == 0.0)

    def test_constant_closed_form(self):
        for c in (1.0, 2.0 - 1.0j, 0.3j):
            g = cubic_projection(poly(c)).array()
            assert abs(g[0] - abs(c) ** 2 * c / 2.0) < 1e-14 * max(1.0, abs(c) ** 3)

    @settings(max_examples=20, deadline=None)
    @given(
        lam_re=st.floats(-2.0, 2.0),
        lam_im=st.floats(-2.0, 2.0),
    )
    def test_cubic_homogeneity(self, lam_re, lam_im):
        # proj(lam f) = lam |lam|^2 proj(f): two analytic factors and one
        # conjugated factor of f enter the projection.
        lam = complex(lam_re, lam_im)
        f = poly(0.5, -0.3j, 0.8)
        base = cubic_projection(f).array()
        scaled = cubic_projection(poly(*(lam * c for c in f.coeffs))).array()
        assert np.allclose(scaled, lam * abs(lam) ** 2 * base, atol=1e-12)

    def test_rotation_covariance(self):
        # Rotating the argument rotates each output coefficient by e^{i k t}.
        theta = 0.7
        f = poly(1.0, 0.4j, -0.2)
        rot = poly(*(c * np.exp(1j * k * theta) for k, c in enumerate(f.coeffs)))
        lhs = cubic_projection(rot).array()
        rhs = cubic_projection(f).array()
        phases = np.exp(1j * np.arange(len(lhs)) * theta)
        assert np.allclose(lhs, rhs * phases, atol=1e-13)

    def test_matches_2d_gaussian_quadrature_oracle(self, coeff_factory):
        # Independent route: dense polar Gauss quadrature of the defining
        # integral, coefficient by coefficient.
        for seed in (101, 102, 103):
            f = FockPolynomial(coeffs=coeff_factory(seed, 4))
            exact = cubic_projection(f).array()
            reference = fock_projection_coefficients(f.coeffs, len(exact) - 1)
            assert np.max(np.abs(exact - reference)) < 1e-8

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError):
            cubic_projection(FockPolynomial(coeffs=tuple([1.0] * 66)))

    @pytest.mark.parametrize("degree", [1, 2, 5, 12, 20, 32, 64])
    def test_matches_40_digit_triple_sum(self, degree):
        # Random coefficients at unit weighted norm, against the defining sum at 40 digits.
        c = sample_complex_gaussians(RngStream(seed=degree, stream_index=7), degree + 1)
        f = poly(*(c / fock_norm(poly(*c))))
        got = cubic_projection(f).array()
        want = fock_projection_triple_sum(f.coeffs)
        assert np.linalg.norm(got - want) <= 5e-16 * np.linalg.norm(want)

    @pytest.mark.filterwarnings("error")
    def test_degree_cap_keeps_the_cubic_range(self):
        # At degree 64 the weights s!/2^(s+1) reach 6e176, so partial sums over coefficients
        # near 1e73 leave double range unless the coefficients are scaled down first; the
        # projection itself leaves it only past 10^73.5.
        ones = poly(*([1.0] * 65))
        big = cubic_projection(poly(*([1e73] * 65))).array()
        assert np.all(np.isfinite(big))
        assert np.allclose(big, 1e219 * cubic_projection(ones).array(), rtol=1e-13, atol=0.0)
        with pytest.raises(FockOverflowError):
            cubic_projection(poly(*([10.0 ** 73.5] * 65)))


class TestStationaryResidual:
    def test_constant_family(self):
        # |c|^2 = 2 omega characterizes the constant stationary states.
        for omega in (0.1, 0.25, 1.0 / 3.0, 0.7):
            c = math.sqrt(2.0 * omega)
            assert stationary_residual(poly(c), omega) < 1e-12
            assert stationary_residual(poly(1.1 * c), omega) > 1e-3

    def test_phase_invariance(self):
        c = math.sqrt(0.5) * complex(math.cos(1.1), math.sin(1.1))
        assert stationary_residual(poly(c), 0.25) < 1e-12

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 0.0])
    def test_omega_must_be_finite_and_nonzero(self, omega):
        with pytest.raises(ValueError, match=f"omega must be finite and nonzero, got {omega}"):
            stationary_residual(poly(1.0, 0.3), omega)
        with pytest.raises(ValueError, match=f"omega must be finite and nonzero, got {omega}"):
            fixed_point_solve(poly(1.0, 0.3), omega, 10, 1e-12)

    def test_residual_builds_no_record(self, monkeypatch):
        f = poly(1.0, 0.3, 0.1)
        built = _count_records(monkeypatch)
        stationary_residual(f, 0.5)
        assert built == []

    @pytest.mark.filterwarnings("error")
    def test_defect_beyond_double_range_raises(self):
        # The projection of 1e100 is finite; omega * f is not.
        with pytest.raises(FockOverflowError, match="defect"):
            stationary_residual(poly(1e100), 1e300)


class TestFixedPointSolve:
    def test_constant_start_at_half(self):
        sol, history = fixed_point_solve(poly(2.0), 0.5, 50, 1e-12)
        assert sol.coeffs == (1.0 + 0.0j,)
        assert history[-1] < 1e-12

    def test_history_on_stagnation(self):
        # A start whose residual never reaches tol nor grows 10x runs the
        # full budget and reports every iterate's residual.
        sol, history = fixed_point_solve(poly(0.0, 1.0), 1.0, 12, 1e-16)
        assert len(history) == 12
        # The iterate stays supported on the degree-one monomial (the cap
        # padding may append zero coefficients).
        assert list(np.flatnonzero(sol.array())) == [1]

    def test_truncation_cap_respected(self):
        f0 = FockPolynomial(coeffs=tuple([0.0] * 60 + [1.0]))
        sol, _ = fixed_point_solve(f0, 0.5, 3, 1e-12)
        assert sol.degree <= 64

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_point_solve(poly(1.0), 0.0, 10, 1e-12)
        with pytest.raises(ValueError):
            fixed_point_solve(poly(1.0), 0.5, 0, 1e-12)
        with pytest.raises(ValueError):
            fixed_point_solve(poly(0.0), 0.5, 10, 1e-12)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_start_or_omega_raises_without_a_warning(self):
        # Complex division by a subnormal overflows: such a start is a bad parameter,
        # and an iterate divided by such an omega is a numeric failure.
        with pytest.raises(ValueError, match="weighted norm"):
            fixed_point_solve(poly(-2.2e-309), 0.5, 10, 1e-12)
        for omega in (-2.2e-309, 5e-324):
            with pytest.raises(FockOverflowError, match="omega"):
                fixed_point_solve(poly(3.9), omega, 10, 1e-12)

    def test_solve_builds_only_the_returned_record(self, monkeypatch):
        f0 = poly(1.0, 0.3, 0.1)
        built = _count_records(monkeypatch)
        sol, history = fixed_point_solve(f0, 0.5, 200, 1e-12)
        assert len(history) == 35 and built == [sol.coeffs]

    def test_divergence_error_carries_history(self):
        err = DivergenceError("boom", [1.0, 2.0])
        assert err.history == [1.0, 2.0]
