"""Spherical monopole energies: closed forms, equilibria, and the ascent flow."""

from __future__ import annotations

import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import checkout_env, grid_nodes
from zeropack import sphere
from zeropack.numerics import RngStream
from zeropack.sphere import (
    SphereConfiguration,
    SphereQuadrature,
    _moments,
    discrepancy,
    equilibrium_residual,
    gradient_flow,
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


class TestQuadrature:
    def test_weights_sum_to_one(self, sphere_quad):
        # Every ring holds n_azimuthal nodes of its ring weight.
        total = float(sphere_quad.ring_weights.sum()) * sphere_quad.n_azimuthal
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            SphereQuadrature(frame="boat")
        with pytest.raises(ValueError):
            SphereQuadrature(n_polar=1)

    def test_half_resolution_halves_counts(self, sphere_quad):
        half = sphere_quad.half_resolution
        assert (half.n_polar, half.n_azimuthal) == (128, 256)

    def test_half_resolution_is_built_once(self):
        quad = SphereQuadrature(16, 32, "world")
        half = quad.half_resolution
        assert quad.half_resolution is half
        fresh = SphereQuadrature(8, 16, "world")
        assert half == fresh
        for name in ("ring_z", "ring_rho", "ring_weights", "cos_phi", "sin_phi"):
            assert np.array_equal(getattr(half, name), getattr(fresh, name)), name

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

    def test_grouped_logs_do_not_underflow_next_to_a_cluster(self, world_quad):
        # 24 points pairwise >= 4e-8 apart within 1.2e-7 of node k: their d^2 there, 1.6e-15 to
        # 1.4e-14, multiply to about 1e-343, which underflows as one product, while every group
        # of 8 stays above 1e-120.  At beta = 1e-3 the node still weighs e^{beta s} = 0.66.  (2 - 2 p.x
        # resolves d^2 only to about 4e-16, so points within 1e-8 of k would read d = 0 there.)
        k = 64 * 128 + 5
        nodes, grid_weights = grid_nodes(world_quad)
        node = nodes[k]
        e1 = np.cross(node, NORTH)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(node, e1)
        points = []
        for radius, count in ((4e-8, 6), (8e-8, 12), (1.2e-7, 6)):
            for angle in 2.0 * math.pi * np.arange(count) / count:
                tangent = math.cos(angle) * e1 + math.sin(angle) * e2
                p = math.cos(radius) * node + math.sin(radius) * tangent
                points.append(p / np.linalg.norm(p))
        config = SphereConfiguration(points=np.array(points))
        d2 = _one_pass_distances(world_quad, config.points)
        assert np.all(d2[k] > 0.0) and np.prod(d2[k]) == 0.0
        with np.errstate(divide="ignore"):
            s = 0.5 * sum(np.log(d2[:, j]) for j in range(24)) - 24 * math.log(2.0)
        weights = grid_weights * np.exp(1e-3 * s)
        assert weights[k] > 0.5 * grid_weights[k]
        assert partition_function(config, 1e-3, world_quad) == pytest.approx(weights.sum(), rel=1e-13)


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
    nodes, weights = grid_nodes(world_quad)
    points = np.vstack([nodes[k], random_configuration(1, RngStream(seed=5)).points])
    config = SphereConfiguration(points=points)
    d2 = np.clip(2.0 - 2.0 * (nodes @ points.T), 0.0, 4.0)
    assert d2[k, 0] == 0.0
    with np.errstate(divide="ignore"):
        s = 0.5 * np.log(d2).sum(axis=1) - 2.0 * math.log(2.0)
    for gamma, (Z, G) in zip((1.0, 2.0), _moments(config, (1.0, 2.0), world_quad)):
        w = weights * np.exp(gamma * s)
        ref = np.empty((2, 3))
        for j, p in enumerate(points):
            hit = d2[:, j] > 0.0
            vec = np.zeros_like(nodes)
            vec[hit] = (p - nodes[hit]) / d2[hit, j, None]
            tang = vec - (vec @ p)[:, None] * p
            ref[j] = np.sum(w[:, None] * tang, axis=0) / w.sum()
        assert np.all(np.isfinite(G))
        assert Z == pytest.approx(w.sum(), rel=1e-14)
        np.testing.assert_allclose(G, ref, rtol=0.0, atol=1e-12)


def _direct_tangential_moments(quad, points, gammas):
    """E^gamma[g_j] for each gamma as the weighted mean over all the nodes of the tangential
    projection at p_j of (p_j - x) / d^2, taken as 0 where d = 0, from the node coordinates."""
    nodes, weights = grid_nodes(quad)
    d2 = np.clip(2.0 - 2.0 * (nodes @ points.T), 0.0, 4.0)
    with np.errstate(divide="ignore"):
        s = 0.5 * np.log(d2).sum(axis=1) - points.shape[0] * math.log(2.0)
    out = []
    for gamma in gammas:
        w = weights * np.exp(gamma * s)
        ref = np.empty_like(points)
        for j, p in enumerate(points):
            hit = d2[:, j] > 0.0
            vec = np.zeros_like(nodes)
            vec[hit] = (p - nodes[hit]) / d2[hit, j, None]
            ref[j] = np.sum(w[:, None] * (vec - (vec @ p)[:, None] * p), axis=0) / w.sum()
        out.append(ref)
    return out


def test_a_point_on_a_node_raises_no_floating_point_error(world_quad, monkeypatch):
    # Blocks of one ring and the point on a node of ring 6, so d^2 = 0 falls in a later block:
    # no operation of the pass may overflow, divide by 0 or be invalid.
    monkeypatch.setattr(sphere, "_NODE_BLOCK", world_quad.n_azimuthal)
    k = 6 * world_quad.n_azimuthal + 9
    points = np.vstack([grid_nodes(world_quad)[0][k], random_configuration(1, RngStream(seed=5)).points])
    with np.errstate(all="raise"):
        got = _moments(SphereConfiguration(points=points), (1.0, 2.0), world_quad)
    for (_, G), ref in zip(got, _direct_tangential_moments(world_quad, points, (1.0, 2.0))):
        assert np.all(np.isfinite(G))
        np.testing.assert_allclose(G, ref, rtol=0.0, atol=1e-12)


def _one_pass_distances(quad, pts_f):
    """(M, n) squared node-to-point distances in one piece, from the ring and azimuth factors:
    A_ij - rho_i C_jk on ring i at azimuth k, A_ij = 2 - 2 z_i z_j,
    C_jk = 2 (x_j cos phi_k + y_j sin phi_k)."""
    A = np.repeat(2.0 - 2.0 * np.outer(quad.ring_z, pts_f[:, 2]), quad.n_azimuthal, axis=0)
    C = 2.0 * (np.outer(quad.cos_phi, pts_f[:, 0]) + np.outer(quad.sin_phi, pts_f[:, 1]))
    rho = np.repeat(quad.ring_rho, quad.n_azimuthal)[:, None]
    return np.clip(A - rho * np.tile(C, (quad.n_polar, 1)), 0.0, 4.0)


def _one_pass_log_potential(d2):
    """s = sum_j log(d_j / 2) from an (M, n) distance array: one log of the product of d^2 over
    each group of 8 points, multiplied and summed in point order."""
    n = d2.shape[1]
    logs = []
    for lo in range(0, n, 8):
        product = d2[:, lo]
        for j in range(lo + 1, min(lo + 8, n)):
            product = product * d2[:, j]
        with np.errstate(divide="ignore"):
            logs.append(np.log(product))
    return 0.5 * sum(logs) - n * math.log(2.0)


def _three_operand_moments(config, gammas, quad):
    """The moments contracted from w, 1/d^2 and x over one (M, n) array w / d^2.

    Each of a_j and A_j is one pairwise numpy sum over all M nodes.
    """
    pts_f, R = sphere._frame_points(config, quad)
    d2 = _one_pass_distances(quad, pts_f)
    s = _one_pass_log_potential(d2)
    nodes, weights = grid_nodes(quad)
    out = []
    for gamma in gammas:
        w = weights * np.exp(gamma * s)
        # w / d^2 and w x / d^2 with 1/d^2 read as 0 where d = 0, summed over the nodes per point
        a, *A = (
            np.divide(wx[:, None], d2, out=np.zeros_like(d2), where=d2 > 0.0).T.copy().sum(axis=1)
            for wx in (w, *(w * nodes.T))
        )
        A = np.column_stack(A)
        out.append((float(w.sum()), ((a[:, None] * pts_f - A) / w.sum() - 0.5 * pts_f) @ R))
    return out


def _per_node_moments(config, gammas, quad, dtype, total):
    """(G, max_j a_j / Z) for each gamma from the terms w / d^2 and w x / d^2, formed node by node
    in dtype (1/d^2 read as 0 where d = 0) and added over all the nodes by total, point by point.

    d^2 and s are the one-pass float64 values and w = weights e^{gamma s} is rounded to float64,
    as in the library; every later product, quotient and sum is in dtype.
    """
    pts_f, R = sphere._frame_points(config, quad)
    d2 = _one_pass_distances(quad, pts_f)
    s = _one_pass_log_potential(d2)
    nodes, weights = grid_nodes(quad)
    x, p = nodes.astype(dtype), pts_f.astype(dtype)
    out = []
    for gamma in gammas:
        w = (weights * np.exp(gamma * s)).astype(dtype)
        terms = np.column_stack([w, w[:, None] * x])  # w and w x by node
        sums = np.empty((config.n, 4), dtype)  # a_j, then A_j by coordinate
        for j in range(config.n):
            hit = d2[:, j] > 0.0
            sums[j] = total(terms[hit] / d2[hit, j, None].astype(dtype))
        a, A, Z = sums[:, 0], sums[:, 1:], w.sum()
        out.append((((a[:, None] * p - A) / Z - 0.5 * p) @ R.astype(dtype), float(a.max() / Z)))
    return out


@pytest.mark.parametrize("n", [2, 8, 32])
def test_moments_match_the_three_operand_contraction(sphere_quad, n):
    config = random_configuration(n, RngStream(seed=n))
    got = _moments(config, (1.0, 2.0), sphere_quad)
    plain = _three_operand_moments(config, (1.0, 2.0), sphere_quad)
    for (Z, _), (Z_ref, _) in zip(got, plain):
        assert Z == Z_ref
    # The moment pass and the Z-only pass give the same Z, bit for bit.
    zb, z2b = sphere._z_values(config, (1.0, 2.0), sphere_quad)
    assert (zb, z2b) == (got[0][0], got[1][0])
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 on this platform")
    # The small components of G are differences of terms up to max_j a_j / Z.  Against terms and
    # sums in long double, the pass and the plain contraction are both within 4 eps of that scale;
    # a left-to-right float64 sum over the nodes is not.
    reference = _per_node_moments(config, (1.0, 2.0), sphere_quad, np.longdouble,
                                  lambda terms: terms.sum(axis=0))
    left_to_right = _per_node_moments(config, (1.0, 2.0), sphere_quad, np.float64,
                                      lambda terms: np.cumsum(terms, axis=0)[-1])
    for (_, G), (_, G_plain), (G_ref, scale), (G_seq, _) in zip(got, plain, reference, left_to_right):
        bound = 4.0 * np.finfo(float).eps * scale
        assert np.max(np.abs(G - G_ref)) <= bound
        assert np.max(np.abs(G_plain - G_ref)) <= bound
        assert np.max(np.abs(G_seq - G_ref)) > bound


def test_geometry_logs_in_blocks_match_one_pass(monkeypatch):
    quad = SphereQuadrature(16, 32, "world")  # the first point stays on node 5
    config = SphereConfiguration(
        points=np.vstack([grid_nodes(quad)[0][5], random_configuration(4, RngStream(seed=6)).points])
    )
    pts_f, _ = sphere._frame_points(config, quad)
    d2_ref = _one_pass_distances(quad, pts_f)
    ref = _one_pass_log_potential(d2_ref)
    assert np.isneginf(ref[5])
    blocks = [(d2.T.copy(), s) for _, d2, s, _, _ in sphere._node_blocks(pts_f, quad, (1.0,))]
    d2 = np.vstack([d2 for d2, _ in blocks])
    s = np.concatenate([s for _, s in blocks])
    assert np.array_equal(d2, d2_ref) and np.array_equal(s, ref)
    one_block = _moments(config, (1.0, 2.0), quad)
    # Blocks of one ring (16 blocks), and of three rings, where the last block holds one ring
    # and takes the reused buffers at a third of their length.
    for rings, sizes in ((1, [1] * 16), (3, [3, 3, 3, 3, 3, 1])):
        monkeypatch.setattr(sphere, "_NODE_BLOCK", rings * quad.n_azimuthal)
        blocks = [(ring, d2.T.copy(), s) for ring, d2, s, _, _ in sphere._node_blocks(pts_f, quad, (1.0,))]
        assert [ring.stop - ring.start for ring, _, _ in blocks] == sizes
        assert np.array_equal(np.vstack([d2 for _, d2, _ in blocks]), d2_ref)
        assert np.array_equal(np.concatenate([s for _, _, s in blocks]), ref)
        # Moments summed over these blocks match those of one block to roundoff.
        for (Z, G), (Z_ref, G_ref) in zip(_moments(config, (1.0, 2.0), quad), one_block):
            assert Z == pytest.approx(Z_ref, rel=1e-15)
            np.testing.assert_allclose(G, G_ref, rtol=1e-13, atol=1e-16)


def test_block_weights_are_the_ring_weights_times_the_exponentials():
    quad = SphereQuadrature(16, 32, "world")
    pts_f, _ = sphere._frame_points(random_configuration(3, RngStream(seed=4)), quad)
    gammas = (1.0, 2.0)
    for ring, _, s, w, _ in sphere._node_blocks(pts_f, quad, gammas):
        weights = np.repeat(quad.ring_weights[ring], quad.n_azimuthal)
        assert np.array_equal(w, weights * np.exp(np.multiply.outer(gammas, s)))


class TestGradientFlow:
    def test_one_geometry_pass_per_trial(self, monkeypatch):
        # Every trial step builds one configuration and one moment pass; the
        # accepted trial's pass also feeds the moments of the next iteration.
        quad = SphereQuadrature(32, 64)
        start = random_configuration(4, RngStream(seed=3))
        counts = {"passes": 0, "trials": 0}
        moments = sphere._moments
        post_init = SphereConfiguration.__post_init__

        def counting_moments(*args):
            counts["passes"] += 1
            return moments(*args)

        def counting_post_init(self):
            counts["trials"] += 1
            post_init(self)

        monkeypatch.setattr(sphere, "_moments", counting_moments)
        monkeypatch.setattr(SphereConfiguration, "__post_init__", counting_post_init)
        _, trace = gradient_flow(4, 1.0, start, step=4.0, max_iters=10, tol=0.0, quad=quad)
        iterations = trace[-1][0]
        assert iterations == 10
        assert counts["trials"] > iterations  # some steps backtracked
        assert counts["passes"] == counts["trials"] + 1

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

    def test_stall_returns_the_iterate_its_last_trace_entry_describes(self, sphere_quad, monkeypatch):
        # With tol below the quadrature floor the flow stops by the stall rule,
        # on the iterate with the smallest residual since the stall began.
        final, trace = gradient_flow(2, 1.0, RngStream(seed=4), step=4.0, tol=1e-9, quad=sphere_quad)
        it, objective, residual = trace[-1]
        assert it < 500 and residual >= 1e-9
        assert [i for i, _, _ in trace] == list(range(it + 1))
        zb, z2b = sphere._z_values(final, (1.0, 2.0), sphere_quad)
        assert objective == 2.0 * math.log(zb) - math.log(z2b)
        assert residual == equilibrium_residual(final, 1.0, sphere_quad)
        # The same path without the stall rule goes on past the returned iterate.
        monkeypatch.setattr(sphere, "_STALL_STEPS", 10**6)
        _, longer = gradient_flow(
            2, 1.0, RngStream(seed=4), step=4.0, tol=1e-9, max_iters=it + 5, quad=sphere_quad
        )
        assert longer[:it + 1] == trace
        assert residual <= longer[it + 1][2]

    def test_keeps_only_the_iterates_the_stall_rule_reads(self, monkeypatch):
        # Every configuration the flow holds is alive when the next trial's moments are taken:
        # the iterates since best last rose (at most _STALL_STEPS + 1) and the trial.  Keeping
        # every iterate would hold one per accepted step, 33 on this 32-iteration flow.
        refs, most = [], [0]

        def counting(config, gammas, quad):
            refs.append(weakref.ref(config))
            most[0] = max(most[0], sum(ref() is not None for ref in refs))
            return moments(config, gammas, quad)

        moments = sphere._moments
        monkeypatch.setattr(sphere, "_moments", counting)
        _, trace = gradient_flow(4, 1.0, RngStream(seed=1), step=4.0, max_iters=200, tol=0.0,
                                 quad=SphereQuadrature(16, 32))
        assert len(trace) > 4 * sphere._STALL_STEPS
        assert most[0] <= sphere._STALL_STEPS + 2

    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_is_rejected_like_a_failed_trial(self, sphere_quad):
        start = random_configuration(2, RngStream(seed=1))
        final, trace = gradient_flow(2, 1.0, start, step=1e300, max_iters=3, quad=sphere_quad)
        assert final is start
        assert [it for it, _, _ in trace] == [0]

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


@pytest.mark.filterwarnings("error")
def test_underflowing_z_raises_before_dividing(sphere_quad):
    # e^{beta s} underflows to 0 at every node: a numeric failure, not a warning.
    config = random_configuration(2, RngStream(seed=1))
    for call in (partition_function, discrepancy, equilibrium_residual):
        with pytest.raises(ArithmeticError, match="underflows to 0"):
            call(config, 1e300, sphere_quad)
    with pytest.raises(ArithmeticError, match="underflows to 0"):
        gradient_flow(2, 1e300, config, quad=sphere_quad)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_passes_at_64_points_stay_within_32_mb():
    # One node block at a time: no (nodes, points) array, whose size at n = 64 is 64 MB.
    code = """if True:
        import resource
        from zeropack import sphere
        from zeropack.numerics import RngStream
        quad = sphere.SphereQuadrature()
        config = sphere.random_configuration(64, RngStream(seed=1))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sphere.equilibrium_residual(config, 1.0, quad)
        sphere.discrepancy(config, 1.0, quad)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False,
                          timeout=120, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 1024
