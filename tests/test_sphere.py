"""Spherical monopole energies: closed forms, equilibria, and the ascent flow."""

from __future__ import annotations

import math

import numpy as np
import pytest

from zeropack import sphere
from zeropack.numerics import RngStream
from zeropack.sphere import (
    SphereConfiguration,
    SphereQuadrature,
    _moments,
    discrepancy,
    equilibrium_residual,
    gradient_flow,
    monopole,
    partition_function,
    random_configuration,
    rho1_closed,
    rho2_closed,
)


def config_of(*points) -> SphereConfiguration:
    return SphereConfiguration(points=np.array(points, dtype=float))


NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


class TestConfiguration:
    def test_validates_unit_norm(self):
        with pytest.raises(ValueError):
            config_of((0.0, 0.0, 0.5))

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            SphereConfiguration(points=np.zeros((2, 2)))

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError):
            config_of(NORTH, NORTH)

    def test_random_configuration_reproducible(self):
        a = random_configuration(5, RngStream(seed=3))
        b = random_configuration(5, RngStream(seed=3))
        assert np.array_equal(a.points, b.points)
        assert np.allclose(np.linalg.norm(a.points, axis=1), 1.0, atol=1e-14)

    def test_points_frozen(self):
        c = config_of(NORTH)
        with pytest.raises(ValueError):
            c.points[0, 0] = 1.0

    def test_min_pair_distance_blocks_match_the_direct_form(self, monkeypatch):
        pts = random_configuration(50, RngStream(seed=8)).points.copy()
        # A pair 3e-9 apart, far from the first block: 2 - 2 p.q would lose it.
        near = pts[11] + 3e-9 * np.cross(pts[11], NORTH)
        pts[37] = near / np.linalg.norm(near)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        direct = math.sqrt(d2.min())
        assert 1e-9 < direct < 1e-8
        for block in (1, 7, 120, 1000, 1 << 16):  # 1, 1, 2, 20 and 50 rows per block
            monkeypatch.setattr(sphere, "_PAIR_BLOCK", block)
            assert sphere._min_pair_distance(pts) == direct


class TestMonopole:
    def test_symmetric(self):
        p, q = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        assert monopole(p, q) == monopole(q, p)

    def test_antipodal_is_zero(self):
        assert monopole(NORTH, SOUTH) == 0.0

    def test_orthogonal_value(self):
        assert monopole(NORTH, (1.0, 0.0, 0.0)) == pytest.approx(
            -0.5 * math.log(2.0), rel=1e-15
        )

    def test_singular_at_coincidence(self):
        with pytest.raises(ValueError):
            monopole(NORTH, NORTH)


class TestQuadrature:
    def test_weights_sum_to_one(self, sphere_quad):
        assert float(sphere_quad.weights.sum()) == pytest.approx(1.0, abs=1e-13)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            SphereQuadrature(frame="boat")
        with pytest.raises(ValueError):
            SphereQuadrature(n_polar=1)

    def test_half_resolution_halves_counts(self, sphere_quad):
        half = sphere_quad.half_resolution()
        assert (half.n_polar, half.n_azimuthal) == (128, 256)

    def test_nodes_and_weights_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            SphereQuadrature(8, 16, "world", nodes=1)
        with pytest.raises(TypeError):
            SphereQuadrature(8, 16, weights=np.ones(128))

    def test_equal_resolutions_compare_and_hash_equal(self):
        a, b = SphereQuadrature(8, 16), SphereQuadrature(8, 16)
        assert a == b and hash(a) == hash(b)
        assert a != SphereQuadrature(8, 16, "world")


    def test_point_budget_admits_the_solver_sizes(self, sphere_quad):
        # 64 points fit the default 256 x 512 grid; the flows use at most 32.
        sphere_quad.check_points(64)
        with pytest.raises(ValueError, match="budget"):
            sphere_quad.check_points(65)

    def test_oversized_flow_is_rejected_before_any_work(self, sphere_quad):
        with pytest.raises(ValueError, match="budget"):
            gradient_flow(3000, 1.0, RngStream(seed=1), quad=sphere_quad)

    def test_every_geometry_pass_checks_the_budget(self, monkeypatch):
        config = config_of(NORTH, SOUTH)
        quad = SphereQuadrature(8, 16)
        monkeypatch.setattr(sphere, "_MAX_GRID_ELEMENTS", 2 * 8 * 16 - 1)
        for call in (partition_function, discrepancy, equilibrium_residual):
            with pytest.raises(ValueError, match="budget"):
                call(config, 1.0, quad)


class TestPartitionFunction:
    def test_single_point_closed_form(self, sphere_quad):
        # Z_gamma = 2/(gamma + 2) for one point, by the substitution
        # u = (1 - cos theta)/2.
        c = config_of(NORTH)
        for gamma in (1.0, 2.0, 3.5):
            z = partition_function(c, gamma, sphere_quad)
            assert z == pytest.approx(2.0 / (gamma + 2.0), abs=1e-7)

    def test_polynomial_case_is_exact(self, sphere_quad):
        # gamma = 2 makes the integrand polynomial in cos theta.
        z = partition_function(config_of(NORTH), 2.0, sphere_quad)
        assert z == pytest.approx(0.5, abs=1e-14)

    def test_empty_configuration(self, sphere_quad):
        empty = SphereConfiguration(points=np.zeros((0, 3)))
        assert partition_function(empty, 1.0, sphere_quad) == 1.0

    def test_rotation_invariance(self, sphere_quad):
        R = rotation(np.array([1.0, 2.0, 0.5]), 1.234)
        base = config_of(NORTH, (1.0, 0.0, 0.0))
        rotated = SphereConfiguration(points=base.points @ R.T)
        for gamma in (1.0, 2.0):
            assert partition_function(rotated, gamma, sphere_quad) == pytest.approx(
                partition_function(base, gamma, sphere_quad), rel=1e-12
            )

    def test_gamma_validation(self, sphere_quad):
        with pytest.raises(ValueError):
            partition_function(config_of(NORTH), 0.0, sphere_quad)


class TestClosedForms:
    def test_rho1_matches_quadrature(self, sphere_quad):
        for beta in (1.0, 2.5):
            rep = discrepancy(config_of(NORTH), beta, sphere_quad)
            assert rep.rho == pytest.approx(rho1_closed(beta), abs=5e-7)

    def test_rho1_value_at_one(self):
        assert rho1_closed(1.0) == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_rho2_matches_quadrature(self, sphere_quad):
        pair = config_of(NORTH, SOUTH)
        for beta in (1.0, 2.0):
            rep = discrepancy(pair, beta, sphere_quad)
            assert rep.rho == pytest.approx(rho2_closed(beta), abs=5e-7)

    def test_rho2_value_at_one(self):
        assert rho2_closed(1.0) == pytest.approx(1.0 - 6.0 * math.pi**2 / 64.0, rel=1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            rho1_closed(0.0)
        with pytest.raises(ValueError):
            rho2_closed(31.0)


class TestEquilibriumResidual:
    def test_antipodal_pair_is_stationary(self, sphere_quad):
        assert equilibrium_residual(config_of(NORTH, SOUTH), 1.0, sphere_quad) < 1e-12

    def test_orthogonal_pair_is_not(self, sphere_quad):
        c = config_of(NORTH, (1.0, 0.0, 0.0))
        assert equilibrium_residual(c, 1.0, sphere_quad) > 1e-2

    def test_rotation_invariance(self, sphere_quad):
        R = rotation(np.array([0.3, -1.0, 2.0]), 0.77)
        base = random_configuration(3, RngStream(seed=12))
        rotated = SphereConfiguration(points=base.points @ R.T)
        assert equilibrium_residual(rotated, 1.0, sphere_quad) == pytest.approx(
            equilibrium_residual(base, 1.0, sphere_quad), abs=1e-12
        )

    def test_needs_a_point(self, sphere_quad):
        empty = SphereConfiguration(points=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            equilibrium_residual(empty, 1.0, sphere_quad)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_nonpositive_beta(self, beta):
        config = random_configuration(3, RngStream(seed=1))
        with pytest.raises(ValueError):
            equilibrium_residual(config, beta, SphereQuadrature(16, 32))


def test_moment_gradient_matches_finite_differences(world_quad):
    # In the world frame the reported moment gap is exactly the tangential
    # gradient of log(Z_beta^2 / Z_{2 beta}) under point motion.
    beta = 1.0
    config = random_configuration(2, RngStream(seed=21))

    def objective(points: np.ndarray) -> float:
        c = SphereConfiguration(points=points)
        (zb, _), (z2b, _) = _moments(c, (beta, 2.0 * beta), world_quad)
        return 2.0 * math.log(zb) - math.log(z2b)

    (_, g1), (_, g2) = _moments(config, (beta, 2.0 * beta), world_quad)
    grad = 2.0 * beta * (g1 - g2)

    h = 1e-5
    p2 = config.points[1]
    tangent = np.cross(p2, np.array([0.3, -0.6, 1.1]))
    tangent /= np.linalg.norm(tangent)
    for direction in (tangent, np.cross(p2, tangent)):
        plus = config.points.copy()
        plus[1] = (p2 + h * direction) / np.linalg.norm(p2 + h * direction)
        minus = config.points.copy()
        minus[1] = (p2 - h * direction) / np.linalg.norm(p2 - h * direction)
        fd = (objective(plus) - objective(minus)) / (2.0 * h)
        analytic = float(np.dot(grad[1], direction))
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)


def test_moments_with_a_point_on_a_quadrature_node(world_quad):
    # d^2 = 0 at one node: g_j is taken as 0 there, and the moments stay
    # finite and equal to the direct tangential projection at every node.
    k = 777
    points = np.vstack([world_quad.nodes[k], random_configuration(1, RngStream(seed=5)).points])
    config = SphereConfiguration(points=points)
    d2 = np.clip(2.0 - 2.0 * (world_quad.nodes @ points.T), 0.0, 4.0)
    assert d2[k, 0] == 0.0
    with np.errstate(divide="ignore"):
        s = 0.5 * np.log(d2).sum(axis=1) - 2.0 * math.log(2.0)
    for gamma, (Z, G) in zip((1.0, 2.0), _moments(config, (1.0, 2.0), world_quad)):
        w = world_quad.weights * np.exp(gamma * s)
        ref = np.empty((2, 3))
        for j, p in enumerate(points):
            hit = d2[:, j] > 0.0
            vec = np.zeros_like(world_quad.nodes)
            vec[hit] = (p - world_quad.nodes[hit]) / d2[hit, j, None]
            tang = vec - (vec @ p)[:, None] * p
            ref[j] = np.sum(w[:, None] * tang, axis=0) / w.sum()
        assert np.all(np.isfinite(G))
        assert Z == pytest.approx(w.sum(), rel=1e-14)
        np.testing.assert_allclose(G, ref, rtol=0.0, atol=1e-12)


def _three_operand_moments(config, gammas, quad):
    """The moments by a three-operand einsum over one (M, n) inverse array."""
    pts_f, R, d2, s = sphere._geometry(config, quad)
    inv = np.divide(1.0, d2, out=np.zeros_like(d2), where=d2 > 0.0)
    out = []
    for gamma in gammas:
        w = quad.weights * np.exp(gamma * s)
        a = np.einsum("m,mn->n", w, inv)
        A = np.einsum("m,mn,mk->nk", w, inv, quad.nodes)
        out.append((float(w.sum()), ((a[:, None] * pts_f - A) / w.sum() - 0.5 * pts_f) @ R))
    return out


@pytest.mark.parametrize("n", [2, 8, 32])
def test_moments_match_the_three_operand_contraction(sphere_quad, n):
    config = random_configuration(n, RngStream(seed=n))
    got = _moments(config, (1.0, 2.0), sphere_quad)
    for (Z, G), (Z_ref, G_ref) in zip(got, _three_operand_moments(config, (1.0, 2.0), sphere_quad)):
        assert Z == Z_ref
        np.testing.assert_allclose(G, G_ref, rtol=1e-14, atol=0.0)
    # A geometry pass handed in gives the same moments as one made inside.
    given = _moments(config, (1.0, 2.0), sphere_quad, sphere._geometry(config, sphere_quad))
    for (Z, G), (Z_given, G_given) in zip(got, given):
        assert Z == Z_given and np.array_equal(G, G_given)


def test_geometry_logs_in_blocks_match_one_pass(monkeypatch):
    quad = SphereQuadrature(16, 32, "world")  # the first point stays on node 5
    config = SphereConfiguration(
        points=np.vstack([quad.nodes[5], random_configuration(4, RngStream(seed=6)).points])
    )
    pts_f, _, d2, s = sphere._geometry(config, quad)
    d2_ref = np.clip(2.0 - 2.0 * (quad.nodes @ pts_f.T), 0.0, 4.0)
    with np.errstate(divide="ignore"):
        ref = 0.5 * np.log(d2_ref).sum(axis=1) - 5 * math.log(2.0)
    assert np.isneginf(ref[5])
    assert np.array_equal(d2, d2_ref) and np.array_equal(s, ref)
    monkeypatch.setattr(sphere, "_LOG_BLOCK", 7)
    assert np.array_equal(sphere._geometry(config, quad)[3], ref)


class TestGradientFlow:
    def test_one_geometry_pass_per_trial(self, monkeypatch):
        # Every trial step builds one configuration and one geometry pass; the
        # accepted trial's pass also feeds the moments of the next iteration.
        quad = SphereQuadrature(32, 64)
        start = random_configuration(4, RngStream(seed=3))
        counts = {"geometry": 0, "trials": 0}
        geometry = sphere._geometry
        post_init = SphereConfiguration.__post_init__

        def counting_geometry(*args):
            counts["geometry"] += 1
            return geometry(*args)

        def counting_post_init(self):
            counts["trials"] += 1
            post_init(self)

        monkeypatch.setattr(sphere, "_geometry", counting_geometry)
        monkeypatch.setattr(SphereConfiguration, "__post_init__", counting_post_init)
        _, trace = gradient_flow(4, 1.0, start, step=4.0, max_iters=10, tol=0.0, quad=quad)
        iterations = trace[-1][0]
        assert iterations == 10
        assert counts["trials"] > iterations  # some steps backtracked
        assert counts["geometry"] == counts["trials"] + 1

    def test_converges_from_perturbed_antipodal(self, sphere_quad):
        start = config_of(
            NORTH, tuple(np.array([0.05, -0.03, -1.0]) / np.linalg.norm([0.05, -0.03, -1.0]))
        )
        final, trace = gradient_flow(2, 1.0, start, step=4.0, tol=1e-8, quad=sphere_quad)
        assert trace[-1][2] < 1e-8
        assert float(np.dot(final.points[0], final.points[1])) <= -1.0 + 1e-6

    def test_random_seed_reaches_antipodal_optimum(self, sphere_quad):
        final, trace = gradient_flow(
            2, 1.0, RngStream(seed=7), step=4.0, tol=1e-8, quad=sphere_quad
        )
        assert trace[-1][2] < 1e-8
        assert float(np.dot(final.points[0], final.points[1])) <= -1.0 + 1e-6
        rep = discrepancy(final, 1.0, sphere_quad)
        assert rep.rho == pytest.approx(rho2_closed(1.0), abs=1e-4)

    def test_objective_trace_nondecreasing(self, sphere_quad):
        _, trace = gradient_flow(
            2, 1.0, RngStream(seed=2), step=4.0, tol=1e-8, quad=sphere_quad
        )
        objs = [obj for _, obj, _ in trace]
        assert all(b - a >= -1e-10 for a, b in zip(objs, objs[1:]))

    def test_three_points_reach_great_circle_triangle(self, sphere_quad):
        final, trace = gradient_flow(
            3, 1.0, RngStream(seed=5), step=4.0, tol=1e-7, quad=sphere_quad
        )
        assert trace[-1][2] < 1e-7
        dots = [
            float(np.dot(final.points[i], final.points[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        # Equilateral triangle on a great circle: all pairwise dots -1/2.
        # The discrete critical point sits within ~1e-4 of the exact one at
        # this grid resolution.
        assert dots == pytest.approx([-0.5, -0.5, -0.5], abs=2e-4)

    def test_machine_stationary_configuration_terminates(self, sphere_quad):
        # Regression: with tol below the quadrature's resolution the flow
        # must detect bitwise stationarity and stop, not spin to max_iters.
        final, trace = gradient_flow(
            2, 1.0, RngStream(seed=4), step=4.0, tol=1e-9, quad=sphere_quad
        )
        assert len(trace) < 120
        assert trace[-1][2] < 5e-9
        assert float(np.dot(final.points[0], final.points[1])) <= -1.0 + 1e-6

    def test_start_configuration_size_checked(self, sphere_quad):
        with pytest.raises(ValueError):
            gradient_flow(3, 1.0, config_of(NORTH, SOUTH), quad=sphere_quad)

    def test_parameter_validation(self, sphere_quad):
        with pytest.raises(ValueError):
            gradient_flow(0, 1.0, RngStream(seed=1), quad=sphere_quad)
        with pytest.raises(ValueError):
            gradient_flow(2, -1.0, RngStream(seed=1), quad=sphere_quad)
        with pytest.raises(ValueError):
            gradient_flow(2, 1.0, RngStream(seed=1), step=0.0, quad=sphere_quad)
        with pytest.raises(ValueError, match="max_iters"):
            gradient_flow(2, 1.0, RngStream(seed=1), max_iters=-1, quad=sphere_quad)

    def test_zero_iterations_return_the_start(self, sphere_quad):
        start = config_of(NORTH, SOUTH)
        final, trace = gradient_flow(2, 1.0, start, max_iters=0, tol=0.0, quad=sphere_quad)
        assert final is start
        assert [it for it, _, _ in trace] == [0]


def test_discrepancy_error_estimate_reflects_resolution(sphere_quad):
    rep = discrepancy(config_of(NORTH, SOUTH), 1.0, sphere_quad)
    assert rep.error_estimate < 1e-6
    assert rep.b_opt == pytest.approx(rep.m1 / rep.m2, rel=1e-15)


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_discrepancy_rejects_nonpositive_beta(sphere_quad, beta):
    with pytest.raises(ValueError):
        discrepancy(config_of(NORTH, SOUTH), beta, sphere_quad)


def test_discrepancy_of_empty_configuration_is_zero(sphere_quad):
    rep = discrepancy(SphereConfiguration(points=np.zeros((0, 3))), 1.0, sphere_quad)
    assert (rep.m1, rep.m2, rep.rho, rep.error_estimate) == (1.0, 1.0, 0.0, 0.0)
