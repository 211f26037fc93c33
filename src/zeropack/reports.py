"""Report type shared by the planar and spherical density computations."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DiscrepancyReport:
    """Moments of a candidate profile and the resulting discrepancy density.

    m1 and m2 are the averages of the beta- and 2*beta-powers of the profile
    over its domain.  Minimizing (b*profile^beta - 1)^2 in the amplitude b is
    a one-dimensional least-squares problem with closed-form optimum
    b_opt = m1/m2, leaving the density rho = 1 - m1^2/m2.  error_estimate is
    the change in rho against a coarser quadrature: the sphere halves its
    grid, the plane drops the finest level of its extrapolation ladder.
    """

    m1: float
    m2: float
    rho: float
    b_opt: float
    error_estimate: float

    def __post_init__(self):
        if not (self.m1 > 0.0 and self.m2 > 0.0):
            raise ValueError(f"moments must be positive, got m1={self.m1}, m2={self.m2}")
        # rho and b_opt are stored, not recomputed, so a corrupted report fails here.
        if abs(self.rho - (1.0 - self.m1**2 / self.m2)) > 1e-14 * max(1.0, abs(self.rho)):
            raise ValueError("rho does not satisfy rho = 1 - m1^2/m2")
        if self.m1**2 > self.m2 * (1.0 + 1e-14):
            raise ValueError("moments violate m1^2 <= m2")
        if not (-1e-14 <= self.rho <= 1.0):
            raise ValueError(f"rho out of range [0, 1]: {self.rho}")
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be nonnegative")


def make_report(m1: float, m2: float, error_estimate: float) -> DiscrepancyReport:
    """Build a DiscrepancyReport from the two moments."""
    if not (m2 > 0.0):
        raise ValueError(f"moments must be positive, got m1={m1}, m2={m2}")
    return DiscrepancyReport(
        m1=m1,
        m2=m2,
        rho=1.0 - m1 * m1 / m2,
        b_opt=m1 / m2,
        error_estimate=error_estimate,
    )
