"""Shared fixtures: expensive immutable objects built once per session."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import zeropack
from zeropack import (
    RngStream,
    SphereQuadrature,
    make_context,
    make_disk_quadrature,
    make_triangular_profile,
)


SRC = Path(zeropack.__file__).resolve().parents[1]


def checkout_env(**env):
    """The environment of a child interpreter that imports this checkout first."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


@pytest.fixture(scope="session")
def profile():
    """Normalized equilateral-lattice profile (weight scale 1)."""
    return make_triangular_profile()


@pytest.fixture(scope="session")
def square_ctx():
    """Square-lattice evaluation context with half-period 0.8."""
    return make_context(0.8, 0.8j)


@pytest.fixture(scope="session")
def sphere_quad():
    """Default anchored-frame sphere quadrature (256 x 512)."""
    return SphereQuadrature()


@pytest.fixture(scope="session")
def world_quad():
    """Small world-frame quadrature for finite-difference gradient checks."""
    return SphereQuadrature(n_polar=128, n_azimuthal=128, frame="world")


@pytest.fixture(scope="session")
def disk_quad_half():
    return make_disk_quadrature(0.5)


@pytest.fixture(scope="session")
def disk_quad_09():
    return make_disk_quadrature(0.9)


def grid_nodes(quad: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """The sphere grid's node coordinates, shape (n_polar * n_azimuthal, 3), and their weights,
    ring by ring, built from its ring and azimuth factors: node (i, k) is
    (rho_i cos phi_k, rho_i sin phi_k, z_i) with weight ring_weights[i]."""
    ring, azimuth = np.divmod(np.arange(quad.n_polar * quad.n_azimuthal), quad.n_azimuthal)
    nodes = np.column_stack([quad.ring_rho[ring] * quad.cos_phi[azimuth],
                             quad.ring_rho[ring] * quad.sin_phi[azimuth], quad.ring_z[ring]])
    return nodes, quad.ring_weights[ring]


def random_complex_coeffs(seed: int, count: int, scale: float = 1.0) -> tuple:
    """Deterministic complex coefficients for candidate polynomials."""
    g = RngStream(seed=seed).generator()
    parts = g.normal(scale=scale, size=(2, count))
    return tuple(complex(a, b) for a, b in zip(parts[0], parts[1]))


@pytest.fixture
def coeff_factory():
    return random_complex_coeffs


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    """Keep ZEROPACK_THREADS out of tests unless one sets it explicitly."""
    monkeypatch.delenv("ZEROPACK_THREADS", raising=False)


def assert_close(actual: float, expected: float, tol: float, label: str = ""):
    """Absolute-tolerance comparison with a diagnostic message."""
    err = abs(actual - expected)
    assert err <= tol, (
        f"{label or 'value'}: got {actual!r}, expected {expected!r} "
        f"(|diff| = {err:.3e} > {tol:.1e})"
    )


@pytest.fixture
def close():
    return assert_close
