"""The explicit constants of the paper's lower-bound proof, and (p,q) tessellation arithmetic.

Both need only math, numbers and fractions, so `zeropack verify` loads no numpy.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# Explicit constants of the lower-bound case analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdCheck:
    value: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ProofConstantsReport:
    """Numeric values of the lower-bound case constants with pass flags.

    case_iia: the no-zero-near-center branch integral over D(0,1/5);
    case_iiba: the descent-path-reaches-the-rim branch at width 1/2214;
    case_iibb: the descent-path-hits-a-zero branch;
    rho1: the local constant the three cases support (at most each case value);
    rho2: the off-center generalization 4/9 * rho1;
    final_bound: rho2 / log(4/3), the global density lower bound.
    """

    case_iia: ThresholdCheck
    case_iiba: ThresholdCheck
    case_iibb: ThresholdCheck
    rho1: float
    rho2: float
    final_bound: ThresholdCheck

    @property
    def all_pass(self) -> bool:
        return (
            self.case_iia.passed
            and self.case_iiba.passed
            and self.case_iibb.passed
            and self.rho1
            <= min(self.case_iia.value, self.case_iiba.value, self.case_iibb.value)
            and self.final_bound.passed
        )

    def to_json_dict(self) -> dict:
        return {
            "case_iia": self.case_iia.to_json_dict(),
            "case_iiba": self.case_iiba.to_json_dict(),
            "case_iibb": self.case_iibb.to_json_dict(),
            "rho1": self.rho1,
            "rho2": self.rho2,
            "final_bound": self.final_bound.to_json_dict(),
        }


def case_iia_integral() -> float:
    """Exact value of the mismatch integral over D(0,1/5) at level 17/16.

    With u = |z|^2 and a = 17/16, angular symmetry reduces
    integral of (a(1-u)-1)^2 dA/(1-u) over D(0,1/5) to the 1-D integral
    over 0 <= u <= 1/25, whose antiderivative is elementary:
    a^2 (u - u^2/2) - 2 a u - log(1-u).  The rational part is evaluated in
    exact arithmetic.
    """
    a = Fraction(17, 16)
    s = Fraction(1, 25)
    rational = a * a * (s - s * s / 2) - 2 * a * s
    return float(rational) + math.log(25.0 / 24.0)


def proof_constants_report() -> ProofConstantsReport:
    """Evaluate every explicit constant of the lower-bound proof.

    Case values are computed from exact rational arithmetic (plus exact
    library log/pi where transcendental) and compared literally against
    their stated thresholds; no slack is applied anywhere.
    """
    iia = case_iia_integral()
    case_iia = ThresholdCheck(
        value=iia, threshold=1.0 / 14000.0, passed=iia > 1.0 / 14000.0
    )

    # Width delta = 1/2214 makes the level drop 1/18 - 41*2214^{-1} = 1/27
    # exactly; the branch value is (delta/(15 pi)) * (1/27)^2.
    iiba = float(Fraction(1, 2214 * 15 * 27 * 27)) / math.pi
    case_iiba = ThresholdCheck(
        value=iiba, threshold=1.314e-8, passed=iiba > 1.314e-8
    )

    iibb = float(Fraction(1, 9 * 123 * 123))
    case_iibb = ThresholdCheck(
        value=iibb, threshold=7.3e-6, passed=iibb > 7.3e-6
    )

    rho1 = 1.3e-8
    rho2 = 4.0 / 9.0 * rho1
    final = rho2 / math.log(4.0 / 3.0)
    final_bound = ThresholdCheck(value=final, threshold=2e-8, passed=final > 2e-8)

    return ProofConstantsReport(
        case_iia=case_iia,
        case_iiba=case_iiba,
        case_iibb=case_iibb,
        rho1=rho1,
        rho2=rho2,
        final_bound=final_bound,
    )


# ---------------------------------------------------------------------------
# Regular tessellation arithmetic
# ---------------------------------------------------------------------------

def schafli_area(p: int, q: int) -> tuple[Fraction, bool]:
    """Normalized hyperbolic area (p - 2 - 2p/q)/4 of a regular (p,q) tile.

    The flag reports existence: the tessellation by regular p-gons meeting
    q at a vertex exists in the hyperbolic plane iff the area is positive.
    Exact rational arithmetic throughout.
    """
    for name, value in (("p", p), ("q", q)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if p < 3 or q < 3:
        raise ValueError(f"need p, q >= 3, got ({p}, {q})")
    area = Fraction(p - 2, 4) - Fraction(2 * p, 4 * q)
    return area, area > 0


def schafli_solutions() -> list[tuple[int, int, Fraction]]:
    """All integer (p, q), p, q >= 3, with 4/p + 2/q = 1, and their areas.

    The constraint forces q = 2p/(p-4), hence (p-4) | 8 and p <= 12, so the
    search range 5..12 is exhaustive.  Every solution has tile area exactly
    1/2.
    """
    out: list[tuple[int, int, Fraction]] = []
    for p in range(5, 13):
        num, den = 2 * p, p - 4
        if num % den != 0:
            continue
        q = num // den
        if q < 3 or Fraction(4, p) + Fraction(2, q) != 1:
            continue
        out.append((p, q, schafli_area(p, q)[0]))
    return out
