"""Discrepancy densities for zero packing in planar, spherical, and
hyperbolic geometries, with the supporting special-function machinery.

Importing the package loads none of its modules (and no numpy): each name in
__all__ resolves on first use by importing the one module that defines it
(PEP 562), so a process pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names the package re-exports from it
    "numerics": (
        "QuadratureRule1D", "RngStream", "gauss_legendre", "map_indexed", "resolve_threads",
        "sample_complex_gaussians",
    ),
    "reports": ("DiscrepancyReport",),
    "weierstrass": (
        "DegenerateLatticeError", "WeierstrassContext", "cell_coordinates", "log_abs_sigma",
        "log_abs_sigma_grid", "make_context", "quasi_period_residual", "sigma", "sigma_parts",
    ),
    "planar": (
        "TriangularProfile", "TruncationError", "density_curve", "log_profile",
        "make_triangular_profile", "planar_gaf_expected", "planar_gaf_mc", "planar_gaf_tail",
        "planar_gaf_truncation", "planar_lattice_density",
    ),
    "fock": (
        "DivergenceError", "FockOverflowError", "FockPolynomial", "cubic_projection",
        "fixed_point_solve", "fock_norm", "stationary_residual",
    ),
    "sphere": (
        "SphereConfiguration", "SphereQuadrature", "StepCollapseError", "discrepancy",
        "equilibrium_residual", "gradient_flow", "partition_function", "random_configuration",
        "rho1_closed", "rho2_closed",
    ),
    "hyperbolic": (
        "DiskFunction", "InequalityReport", "halfdisk_identity_check", "hyperbolic_discrepancy",
        "hyperbolic_gaf_expected", "hyperbolic_gaf_mc", "hyperbolic_gaf_tail",
        "hyperbolic_gaf_truncation", "inequality_suite", "make_disk_quadrature",
        "tight_discrepancy", "weighted_square_mass",
    ),
    "proof": (
        "ProofConstantsReport", "ThresholdCheck", "case_iia_integral", "proof_constants_report",
        "schafli_area", "schafli_solutions",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Resolve an exported name, or one of the modules above, by importing its module."""
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
