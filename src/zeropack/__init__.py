"""Discrepancy densities for zero packing in planar, spherical, and
hyperbolic geometries, with the supporting special-function machinery."""

__version__ = "0.1.0"

from .numerics import (
    QuadratureRule1D,
    RngStream,
    gamma_real,
    gauss_legendre,
    map_indexed,
    resolve_threads,
    sample_complex_gaussians,
    sample_standard_complex_gaussian,
)
from .reports import DiscrepancyReport, make_report
from .weierstrass import (
    DegenerateLatticeError,
    Lattice,
    LatticePoleError,
    WeierstrassContext,
    cell_coordinates,
    log_abs_sigma,
    log_abs_sigma_grid,
    make_context,
    quasi_period_residual,
    sigma,
    sigma_parts,
    weierstrass_zeta,
)
from .planar import (
    TriangularProfile,
    TruncationError,
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
from .fock import (
    DivergenceError,
    FockOverflowError,
    FockPolynomial,
    cubic_projection,
    fixed_point_solve,
    fock_norm,
    stationary_residual,
)
from .sphere import (
    SphereConfiguration,
    SphereQuadrature,
    StepCollapseError,
    discrepancy,
    equilibrium_residual,
    gradient_flow,
    monopole,
    partition_function,
    random_configuration,
    rho1_closed,
    rho2_closed,
)
from .hyperbolic import (
    DiskFunction,
    DiskQuadrature,
    InequalityReport,
    ProofConstantsReport,
    ThresholdCheck,
    case_iia_integral,
    halfdisk_identity_check,
    hyperbolic_discrepancy,
    hyperbolic_gaf_expected,
    hyperbolic_gaf_mc,
    hyperbolic_gaf_tail,
    hyperbolic_gaf_truncation,
    inequality_suite,
    make_disk_quadrature,
    proof_constants_report,
    sample_hyperbolic_gaf,
    schafli_area,
    schafli_solutions,
    tight_discrepancy,
    weighted_square_mass,
)
