"""Reference values the benchmark checks library outputs against.

Closed forms are evaluated here in extended precision (mpmath, 40 digits), so
their own error is far below any error they measure.  Values without a closed
form (planar densities, pinned solver outcomes, tolerances) are read from
`references.json`; `derive_references.py` regenerates that file and README.md
gives each derivation.
"""
from __future__ import annotations

import json
import math
import os

import mpmath as mp

mp.mp.dps = 40

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# The library stops the tight-discrepancy annulus at |z|^2 = 1 - 1e-12 and
# bounds the neglected tail separately; the closed form integrates to the same
# edge.
ANNULUS_EDGE = mp.mpf("1e-12")


class CheckFailed(Exception):
    """A library output missed its reference or consistency check."""


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gaf_expected(b: float) -> float:
    """Mean discrepancy b^2 - b sqrt(pi) + 1 of the amplitude-b GAF, both normalizations."""
    b = mp.mpf(b)
    return float(b * b - b * mp.sqrt(mp.pi) + 1)


def sphere_rho1(beta: float) -> float:
    """Single-point sphere discrepancy beta^2 / (2 + beta)^2."""
    b = mp.mpf(beta)
    return float(b * b / (2 + b) ** 2)


def sphere_rho2(beta: float) -> float:
    """Antipodal-pair sphere discrepancy.

    1 - 2^{-4 beta} pi^2 Gamma(2 + 2 beta) / ((1 + beta)^2 Gamma((1 + beta)/2)^4).
    """
    b = mp.mpf(beta)
    num = mp.power(2, -4 * b) * mp.pi**2 * mp.gamma(2 + 2 * b)
    den = (1 + b) ** 2 * mp.gamma((1 + b) / 2) ** 4
    return float(1 - num / den)


def _monomial_parts(c: float, k: int, r: float):
    """Inner numerator and normalization for f = c z^k at alpha = beta = 1.

    With s = r^2 and u = |z|^2, the angular average collapses the inner
    integral of ((1-u) c u^{k/2} - 1)^2 / (1-u) over 0 <= u <= s to
    c^2 (s^{k+1}/(k+1) - s^{k+2}/(k+2)) - 2c s^{k/2+1}/(k/2+1) - log(1-s).
    """
    c, s = mp.mpf(c), mp.mpf(r) ** 2
    inner = (
        c * c * (s ** (k + 1) / (k + 1) - s ** (k + 2) / (k + 2))
        - 2 * c * s ** (mp.mpf(k) / 2 + 1) / (mp.mpf(k) / 2 + 1)
        - mp.log(1 - s)
    )
    return inner, -mp.log(1 - s)


def disk_monomial(c: float, k: int, r: float) -> float:
    """hyperbolic_discrepancy of c z^k on D(0, r) at alpha = beta = 1."""
    inner, norm = _monomial_parts(c, k, r)
    return float(inner / norm)


def disk_monomial_tight(c: float, k: int, r: float) -> float:
    """tight_discrepancy of c z^k on D(0, r).

    Adds the annulus charge c^2 * integral of (1-u) u^k du over s <= u <= 1 - edge.
    """
    inner, norm = _monomial_parts(c, k, r)
    c, s, top = mp.mpf(c), mp.mpf(r) ** 2, 1 - ANNULUS_EDGE

    def antiderivative(u):
        return u ** (k + 1) / (k + 1) - u ** (k + 2) / (k + 2)

    annulus = c * c * (antiderivative(top) - antiderivative(s))
    return float((inner + annulus) / norm)


def fock_projection(coeffs) -> list[complex]:
    """Cubic projection by the defining triple sum, in exact factorials.

    g_m = sum over a + b - c = m of c_a c_b conj(c_c) (a+b)! / (2^{a+b+1} m!).
    A different route from the library's convolution-and-correlation loop;
    used only for low-degree inputs.
    """
    c = [mp.mpc(x) for x in coeffs]
    n = len(c) - 1
    out = [mp.mpc(0)] * (2 * n + 1)
    for a in range(n + 1):
        for b in range(n + 1):
            for d in range(n + 1):
                m = a + b - d
                if m < 0:
                    continue
                w = mp.factorial(a + b) / (mp.power(2, a + b + 1) * mp.factorial(m))
                out[m] += c[a] * c[b] * mp.conj(c[d]) * w
    return [complex(x) for x in out]


def rel_err(value: float, ref: float) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {value!r}")
    return abs(value - ref) / abs(ref)


def check_rel(value: float, ref: float, tol: float, what: str) -> float:
    err = rel_err(value, ref)
    if not err <= tol:
        raise CheckFailed(f"{what}: {value!r} vs reference {ref!r}, relative error {err:.3e} > {tol:.1e}")
    return err
