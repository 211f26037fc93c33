"""Independent reference implementations used only by the test suite.

Each oracle reaches the target quantity by a different route than the
library (lattice sums and products instead of theta series, adaptive 1-D
quadrature instead of product rules, dense 2-D Gaussian quadrature instead
of coefficient algebra), so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad


def lattice_points(omega1: complex, omega2: complex, radius: float) -> np.ndarray:
    """All nonzero points of the lattice 2m*omega1 + 2n*omega2 within radius.

    The index bounds come from the dual basis, so the enumeration covers the
    full disk (a naive square index box would clip it anisotropically and
    break the symmetry cancellations the truncated sums rely on).
    """
    p1, p2 = 2 * complex(omega1), 2 * complex(omega2)
    det = abs((p1.conjugate() * p2).imag)
    bound_m = int(radius * abs(p2) / det) + 2
    bound_n = int(radius * abs(p1) / det) + 2
    m, n = np.meshgrid(
        np.arange(-bound_m, bound_m + 1), np.arange(-bound_n, bound_n + 1)
    )
    pts = p1 * m.ravel() + p2 * n.ravel()
    return pts[(pts != 0) & (np.abs(pts) <= radius)]


def half_lattice_points(
    omega1: complex, omega2: complex, radius: float
) -> np.ndarray:
    """One representative of each +/- pair of nonzero lattice points."""
    pts = lattice_points(omega1, omega2, radius)
    keep = (pts.real > 1e-12) | ((np.abs(pts.real) <= 1e-12) & (pts.imag > 0))
    return pts[keep]


def zeta_half_period_sum(
    omega1: complex, omega2: complex, radius: float = 2000.0
) -> complex:
    """Quasi-period eta1 as the absolutely convergent pair-combined sum.

    The defining sum 1/w0 + sum'(1/(w0-w) + 1/w + w0/w^2) at w0 = omega1,
    combined over +/- pairs, telescopes to 2 w0^3 / (w^2 (w0^2 - w^2)) per
    pair, which decays like |w|^-4 and is summable directly.
    """
    w0 = complex(omega1)
    half = half_lattice_points(omega1, omega2, radius)
    terms = 2.0 * w0**3 / (half**2 * (w0**2 - half**2))
    return w0 ** (-1) + complex(np.sum(terms))


def sigma_product(
    omega1: complex, omega2: complex, z: complex, radius: float
) -> complex:
    """Canonical product for sigma over the lattice, truncated at |w| <= radius.

    Pairing +/- w turns the genus-2 factors into (1 - z^2/w^2) exp(z^2/w^2);
    the product is accumulated in logarithmic form.  Accurate only when the
    truncation tail cancels (e.g. sixfold-symmetric lattices); the caller is
    responsible for choosing an admissible lattice and radius.
    """
    half = half_lattice_points(omega1, omega2, radius)
    ratio = (z / half) ** 2
    logs = np.log(1.0 - ratio) + ratio
    return z * complex(np.exp(np.sum(logs)))


def log_abs_sigma_jtheta(omega1: complex, omega2: complex, z: complex, dps: int = 30) -> float:
    """log|sigma(z)| from mpmath's Jacobi theta functions at `dps` digits.

    log|2 w1 / (pi theta1_1)| + Re(eta1 z^2 / (2 w1)) + log|theta1(pi z / (2 w1), q)|
    with q = exp(i pi w2 / w1), theta1_k the k-th derivative of theta1 at 0 and
    eta1 = -pi^2 theta1_3 / (12 w1 theta1_1), evaluated at z itself: no cell
    reduction and no series of our own.
    """
    with mp.workdps(dps):
        w1, w2, z = mp.mpc(omega1), mp.mpc(omega2), mp.mpc(z)
        q = mp.exp(1j * mp.pi * w2 / w1)
        theta1_1 = mp.jtheta(1, 0, q, 1)
        eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (12 * w1 * theta1_1)
        return float(
            mp.log(abs(2 * w1 / (mp.pi * theta1_1)))
            + mp.re(eta1 * z * z / (2 * w1))
            + mp.log(abs(mp.jtheta(1, mp.pi * z / (2 * w1), q)))
        )


def gauss_legendre_mp(n: int, indices, dps: int = 30) -> list[tuple[mp.mpf, mp.mpf]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1] at `dps` digits.

    Only the requested indices (ascending node order) are computed.  Each node starts from
    numpy's Golub-Welsch `leggauss` node, so it lands on the right root, and is polished by
    Newton on the Legendre recurrence in mpmath; the weight is 2 / ((1 - x^2) P_n'(x)^2).
    """
    start, _ = np.polynomial.legendre.leggauss(n)

    def legendre(x):
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / (1 - x * x)

    out = []
    with mp.workdps(dps + 10):
        for i in indices:
            x = mp.mpf(float(start[i]))
            for _ in range(20):
                p, dp = legendre(x)
                step = p / dp
                x -= step
                if abs(step) < mp.mpf(10) ** (-dps - 5):
                    break
            else:
                raise ArithmeticError(f"node {i} of n = {n} did not converge")
            _, dp = legendre(x)
            out.append((+x, 2 / ((1 - x * x) * dp * dp)))
    return out


# ---------------------------------------------------------------------------
# 1-D radial oracles (adaptive quadrature, scipy)
# ---------------------------------------------------------------------------

def disk_constant_discrepancy(
    c: float, r: float, alpha: float = 1.0, beta: float = 1.0
) -> float:
    """Adaptive-quadrature discrepancy of the constant candidate c.

    (1/log(1/(1-r^2))) * integral_0^{r^2} ((1-u)^alpha c^beta - 1)^2/(1-u) du.
    """
    total = -math.log1p(-r * r)
    cb = c**beta
    val, err = quad(
        lambda u: ((1.0 - u) ** alpha * cb - 1.0) ** 2 / (1.0 - u), 0.0, r * r, epsabs=1e-12, epsrel=1e-12
    )
    assert err < 1e-8  # scipy's estimate is conservative near the log endpoint
    return val / total


def disk_monomial_discrepancy(k: int, a: float, r: float) -> float:
    """Adaptive-quadrature alpha = beta = 1 discrepancy of f(z) = a z^k.

    |f| is radial (a u^{k/2} at |z|^2 = u), so the angular average is free.
    """
    total = -math.log1p(-r * r)
    val, err = quad(
        lambda u: ((1.0 - u) * a * u ** (k / 2.0) - 1.0) ** 2 / (1.0 - u),
        0.0,
        r * r,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert err < 1e-8  # scipy's estimate is conservative near the log endpoint
    return val / total


def disk_monomial_tight(k: int, a: float, r: float) -> float:
    """Tight-variant value for f(z) = a z^k by adaptive radial quadrature.

    Inner part: ((1-u) a u^{k/2} - 1)^2 / (1-u) on [0, r^2] (the angular
    average of |f| is a u^{k/2} since |f| is radial); annulus part:
    (1-u) a^2 u^k on [r^2, 1]; both normalized by log(1/(1-r^2)).
    """
    total = -math.log1p(-r * r)
    inner, err1 = quad(
        lambda u: ((1 - u) * a * u ** (k / 2.0) - 1.0) ** 2 / (1.0 - u),
        0.0,
        r * r,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    annulus, err2 = quad(
        lambda u: (1 - u) * a * a * u**k, r * r, 1.0, epsabs=1e-12, epsrel=1e-12
    )
    assert err1 < 1e-8 and err2 < 1e-8
    return (inner + annulus) / total


def annulus_power_mass(coeffs, lo: float, hi: float) -> float:
    """Exact integral of (1-|z|^2)|f|^2 dA over lo <= |z|^2 <= hi.

    Coefficient orthogonality gives sum_k |c_k|^2 * (B(hi,k) - B(lo,k)) with
    B(s,k) = s^{k+1}/(k+1) - s^{k+2}/(k+2).
    """
    c2 = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    k = np.arange(len(c2), dtype=float)

    def anti(s: float) -> np.ndarray:
        return s ** (k + 1) / (k + 1) - s ** (k + 2) / (k + 2)

    return float(np.sum(c2 * (anti(hi) - anti(lo))))


def halfdisk_constant_sides(c: float) -> tuple[float, float]:
    """Both sides of the half-disk identity for the constant candidate c.

    Normalization fixes c~ = c / sqrt(c^2 (s - s^2/2)) at s = 1/4, so the
    value of c cancels; b = c~ * s; the left side is integrated adaptively.
    """
    s = 0.25
    mass = c * c * (s - s * s / 2.0)
    cs = c / math.sqrt(mass)
    b = cs * s
    lhs, err = quad(
        lambda u: (b * cs * (1 - u) - 1.0) ** 2 / (1.0 - u),
        0.0,
        s,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert err < 1e-8  # scipy's estimate is conservative near the log endpoint
    rhs = math.log(4.0 / 3.0) - b * b
    return lhs, rhs


def case_iia_quadrature() -> float:
    """Adaptive-quadrature route to the no-zero-near-center branch integral."""
    a = 17.0 / 16.0
    val, err = quad(
        lambda u: (a * (1 - u) - 1.0) ** 2 / (1.0 - u), 0.0, 1.0 / 25.0
    )
    assert err < 1e-14
    return val


# ---------------------------------------------------------------------------
# Dense 2-D Gaussian quadrature oracle for the cubic projection
# ---------------------------------------------------------------------------

def fock_projection_coefficients(
    coeffs, out_degree: int, n_radial: int = 400, n_angular: int = 400
) -> np.ndarray:
    """Coefficients of the cubic projection by direct 2-D integration.

    g_k = (1/k!) * integral of conj(w)^k f(w) |f(w)|^2 e^{-2|w|^2} dA(w)
    with dA = dx dy / pi, evaluated on a polar grid of radial extent 6
    (the integrand carries e^{-2 r^2}, so the truncation is far below
    double precision).
    """
    r_nodes, r_weights = np.polynomial.legendre.leggauss(n_radial)
    r = 3.0 * (r_nodes + 1.0)  # [0, 6]
    rw = 3.0 * r_weights
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    w = r[:, None] * np.exp(1j * theta)[None, :]
    fw = np.polynomial.polynomial.polyval(w, np.asarray(coeffs, dtype=complex))
    core = fw * np.abs(fw) ** 2 * np.exp(-2.0 * r[:, None] ** 2) * r[:, None]
    out = np.empty(out_degree + 1, dtype=complex)
    for k in range(out_degree + 1):
        integrand = np.conj(w) ** k * core
        # dA/pi = (1/pi) r dr dtheta; angular mean * 2 handles the 1/pi.
        val = 2.0 * (rw @ integrand.mean(axis=1))
        out[k] = val / math.factorial(k)
    return out


def fock_projection_triple_sum(coeffs, dps: int = 40) -> np.ndarray:
    """Coefficients of the cubic projection from its defining triple sum, in dps-digit arithmetic.

    g_m = sum_{a+b-c=m} c_a c_b conj(c_c) (a+b)! / (2^{a+b+1} m!), term by term over every
    (a, b, c) with a + b >= c, with exact factorials; each coefficient is rounded to a double
    once, at the end.
    """
    with mp.workdps(dps):
        c = [mp.mpc(complex(x)) for x in coeffs]
        conj = [mp.conj(x) for x in c]
        n = len(c) - 1
        g = [mp.mpc(0)] * (2 * n + 1)
        for a in range(n + 1):
            for b in range(n + 1):
                pair = c[a] * c[b] * mp.factorial(a + b) / mp.mpf(2) ** (a + b + 1)
                for k in range(min(n, a + b) + 1):
                    g[a + b - k] += pair * conj[k]
        return np.array([complex(x / mp.factorial(m)) for m, x in enumerate(g)])


# ---------------------------------------------------------------------------
# Radially exact disk oracles (closed forms and mpmath, alpha = beta = 1)
# ---------------------------------------------------------------------------

def disk_monomial_closed_form(k: int, c: float, r: float) -> float:
    """alpha = beta = 1 discrepancy of c z^k on D(0, r) in closed form, at 30 digits.

    |c z^k| = |c| u^{k/2} on the circle |z|^2 = u, so with s = r^2 and T = log(1/(1-s)) the
    value is 1 + (c^2 (s^{k+1}/(k+1) - s^{k+2}/(k+2)) - 2 |c| s^{k/2+1}/(k/2+1)) / T.
    """
    with mp.workdps(30):
        s, c = mp.mpf(r) ** 2, abs(mp.mpf(c))
        total = -mp.log1p(-s)
        square = c * c * (s ** (k + 1) / (k + 1) - s ** (k + 2) / (k + 2))
        modulus = c * s ** (mp.mpf(k) / 2 + 1) / (mp.mpf(k) / 2 + 1)
        return float(1 + (square - 2 * modulus) / total)


def disk_trapezoid_discrepancy(coeffs, r: float, n_angular: int = 512) -> float:
    """alpha = beta = 1 discrepancy of sum_k coeffs[k] z^k on D(0, r), exact in the radius.

    The angles are the n_angular uniform ones of a trapezoid rule, as in the library; the radial
    integral is exact.  On the circle |z|^2 = u the mean of |f|^2 over n_angular > degree angles
    is sum_k |c_k|^2 u^k, integrated in closed form.  The mean of |f|, summed term by term from
    direct evaluation of f at every angle, is integrated by mpmath's tanh-sinh quadrature on
    [0, r^2] split at the squared moduli of the zeros of f (mpmath.polyroots), where it is not
    smooth.
    """
    c = np.asarray(coeffs, dtype=complex)
    angles = np.exp(2j * np.pi * np.arange(n_angular) / n_angular)

    def mean_modulus(u):
        z = math.sqrt(float(u)) * angles
        return float(np.abs(np.polynomial.polynomial.polyval(z, c)).mean())

    with mp.workdps(20):
        zeros = mp.polyroots([mp.mpc(x) for x in c[::-1]], maxsteps=200, extraprec=60)
        splits = sorted(float(abs(z)) ** 2 for z in zeros if 0 < abs(z) < r)
        modulus, error = mp.quad(mean_modulus, [0.0, *splits, r * r], error=True, maxdegree=10)
        assert error < 1e-15, error
    s = r * r
    k = np.arange(c.size)
    square = float(np.sum(np.abs(c) ** 2 * (s ** (k + 1) / (k + 1) - s ** (k + 2) / (k + 2))))
    total = -math.log1p(-s)
    return 1.0 + (square - 2.0 * float(modulus)) / total


# ---------------------------------------------------------------------------
# Exact variance of one GAF Monte Carlo trial (covariance kernel and scipy hyp2f1)
# ---------------------------------------------------------------------------

def disk_gaf_trial_variance(r: float, N: int, n_radial: int, n_angular: int, b):
    """Exact variance of one disk GAF Monte Carlo trial on a polar grid, by the double sum.

    The grid: n_radial Gauss-Legendre nodes t_i (numpy's leggauss) on [0, log(1/(1 - r^2))],
    radii sqrt(1 - e^{-t_i}) and weights w_i summing to 1, times n_angular uniform angles.  A trial
    is sum_i w_i mean_k h(zeta_ik) + const with h(x) = a |x|^2 - 2b|x|, a = b sqrt(pi)/2: the
    mismatch (b|x| - 1)^2 less the control term (b^2 - b sqrt(pi)/2) |x|^2.  The field is
    zeta(z) = (1 - |z|^2) sum_{j <= N} eta_j sqrt(j + 1) z^j, so two grid values are complex
    Gaussians with covariance K = (1 - u)(1 - u') sum_{j <= N} (j + 1) q^j, q = r_i r_l e^{i dphi},
    the finite sum taken in closed form.  With s = |K|^2 / (sigma^2 sigma'^2):
      Cov(|x|^2, |y|^2) = |K|^2,  Cov(|x|, |y|^2) = (sqrt(pi)/4) s sigma sigma'^2,
      Cov(|x|, |y|) = (pi/4) sigma sigma' (2F1(-1/2, -1/2; 1; s) - 1)   (scipy.special.hyp2f1).
    A pair of points enters through its two radii and its angle difference d only, so the sum
    over all n_radial^2 n_angular^2 pairs is (1/n_angular) sum_{i,l,d} w_i w_l Cov(i, l, d).
    b may be an array; the result has its shape.
    """
    from scipy.special import hyp2f1

    x, w = np.polynomial.legendre.leggauss(n_radial)
    span = -math.log1p(-r * r)
    t = 0.5 * span * (x + 1.0)
    w = 0.5 * w
    u = -np.expm1(-t)
    rho = np.sqrt(u)
    turns = np.exp(2j * np.pi * np.arange(n_angular) / n_angular)
    q = (rho[:, None] * rho[None, :])[:, :, None] * turns
    kernel = (1.0 - (N + 2) * q ** (N + 1) + (N + 1) * q ** (N + 2)) / (1.0 - q) ** 2
    kernel *= ((1.0 - u)[:, None] * (1.0 - u)[None, :])[:, :, None]
    sigma = np.sqrt(np.abs(np.einsum("iid->id", kernel)[:, 0]))
    k2 = np.abs(kernel) ** 2
    ss = (sigma[:, None] * sigma[None, :])[:, :, None]
    s = np.minimum(k2 / ss**2, 1.0)
    cross = (math.sqrt(math.pi) / 4.0) * s * (ss * (sigma[:, None] + sigma[None, :])[:, :, None])
    moduli = (math.pi / 4.0) * ss * (hyp2f1(-0.5, -0.5, 1.0, s) - 1.0)
    pair = np.outer(w, w)[:, :, None] / n_angular
    t_square, t_cross, t_modulus = (float(np.sum(pair * term)) for term in (k2, cross, moduli))
    b = np.asarray(b, dtype=float)
    a = b * math.sqrt(math.pi) / 2.0
    return a * a * t_square - 2.0 * a * b * t_cross + 4.0 * b * b * t_modulus
