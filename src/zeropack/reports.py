"""Report type shared by the planar and spherical density computations."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DiscrepancyReport:
    """Moments of a candidate profile and the discrepancy density they determine.

    m1 and m2 are the averages of the beta- and 2*beta-powers of the profile
    over its domain; they and error_estimate are all a report holds.
    Minimizing (b*profile^beta - 1)^2 in the amplitude b is a one-dimensional
    least-squares problem with closed-form optimum b_opt = m1/m2, leaving the
    density rho = 1 - m1^2/m2; both are read-only properties formed from the
    moments on every read.  error_estimate is the change in rho against a
    coarser quadrature: the sphere halves its grid, the plane drops the finest
    level of its extrapolation ladder.
    """

    m1: float
    m2: float
    error_estimate: float

    def __post_init__(self):
        if not (self.m1 > 0.0 and self.m2 > 0.0):
            raise ValueError(f"moments must be positive, got m1={self.m1}, m2={self.m2}")
        if self.m1**2 > self.m2 * (1.0 + 1e-14):
            raise ValueError("moments violate m1^2 <= m2")
        if not (-1e-14 <= self.rho <= 1.0):
            raise ValueError(f"rho out of range [0, 1]: {self.rho}")
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be nonnegative")

    @property
    def rho(self) -> float:
        """The density 1 - m1^2/m2 at the optimal amplitude."""
        return 1.0 - self.m1 * self.m1 / self.m2

    @property
    def b_opt(self) -> float:
        """The optimal amplitude m1/m2."""
        return self.m1 / self.m2
