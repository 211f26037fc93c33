"""Regenerate references.json: reference values, pinned outcomes, tolerances.

    PYTHONPATH=src python3 bench/derive_references.py

Takes a few minutes on two cores.  README.md describes each derivation;
in short:

* planar rho(beta): midpoint moments of P^beta and P^{2 beta} over the
  rhombus, computed in 30-digit arithmetic from an independent theta series
  (cross-checked against mpmath.jtheta), then Richardson-extrapolated with
  the singular exponents h^{2+e+2j} (e = beta or 2 beta) of the generalized
  Euler-Maclaurin expansion; moments whose exponent e is an even integer
  are smooth and converge spectrally, so their finest value is used.
* tolerances: each check's tolerance is a fixed multiple of the largest
  error this commit's library shows on the same inputs (or on a sweep over
  the seeded input range), floored at roundoff.
* pinned outcomes: gradient flows, equilibrium residuals and Fock solves
  from the committed start pools, as this commit's library produces them.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import workloads as W  # noqa: E402
from zeropack import fock, hyperbolic, numerics, planar, sphere  # noqa: E402

DPS = 30
RICHARDSON_GRIDS = (32, 64, 128, 256)
TOL_FACTOR = 4.0  # fixed inputs: tolerance = 4 x this commit's error
SWEEP_TOL_FACTOR = 10.0  # seeded inputs: 10 x the largest error of the sweep
TOL_FLOOR = 1e-13  # roundoff-level errors


def tolerance(err: float, factor: float = TOL_FACTOR) -> float:
    return float(f"{max(factor * err, TOL_FLOOR):.1e}")


# ---------------------------------------------------------------------------
# planar rho(beta)
# ---------------------------------------------------------------------------

def _theta1_abs_log(v, q14, qpow):
    """log|theta1(v, q)| from the series 2 sum (-1)^n q^{(n+1/2)^2} sin((2n+1) v)."""
    w = mp.expj(v)
    w2 = w * w
    wk = w
    total = mp.mpc(0)
    for n, qn in enumerate(qpow):
        term = qn * (wk - 1 / wk) / (2j)
        total += -term if n % 2 else term
        wk *= w2
    return mp.log(abs(2 * q14 * total))


def _log_profile_rows(m: int):
    """log P at the m x m rhombus midpoints, up to an additive constant.

    With omega1 = alpha real and tau = e^{i pi/3}, log P(z) =
    -2 Im(z)^2 + log|theta1(pi z / (2 alpha), q)| + const, q = e^{i pi tau}:
    the quadratic twist cancels Re(z^2) - |z|^2 + Re(eta1 z^2 / (2 omega1))
    down to -2 Im(z)^2.  Only rows t < 1/2 are evaluated; the point
    reflection z -> 2 omega1 + 2 omega2 - z maps the other half onto them.
    """
    alpha = mp.sqrt(mp.pi) / (2 * mp.power(3, mp.mpf(1) / 4))
    tau = mp.expjpi(mp.mpf(1) / 3)
    q = mp.expjpi(tau)
    q14 = mp.expjpi(tau / 4)
    qpow = [mp.expjpi(tau * (n + mp.mpf(1) / 2) ** 2) / q14 for n in range(12)]
    rows = []
    for j in range(m // 2):
        t = (j + mp.mpf(1) / 2) / m
        y = mp.sqrt(3) * alpha * t
        rows.append([-2 * y * y + _theta1_abs_log(mp.pi * ((i + mp.mpf(1) / 2) / m + tau * t), q14, qpow)
                     for i in range(m)])
    return rows, (alpha, tau, q)


def _crosscheck_theta(consts) -> float:
    """Largest |log|theta1|| difference between the series above and mpmath.jtheta."""
    alpha, tau, q = consts
    q14 = mp.expjpi(tau / 4)
    qpow = [mp.expjpi(tau * (n + mp.mpf(1) / 2) ** 2) / q14 for n in range(12)]
    worst = mp.mpf(0)
    for s, t in ((0.1, 0.2), (0.37, 0.45), (0.8, 0.05), (0.5, 0.5)):
        v = mp.pi * (mp.mpf(s) + tau * mp.mpf(t))
        worst = max(worst, abs(_theta1_abs_log(v, q14, qpow) - mp.log(abs(mp.jtheta(1, v, q)))))
    return float(worst)


def _crosscheck_library(consts) -> float:
    """Spread of (library log P) - (series log P) over a few points; 0 up to roundoff."""
    alpha, tau, _ = consts
    q14 = mp.expjpi(tau / 4)
    qpow = [mp.expjpi(tau * (n + mp.mpf(1) / 2) ** 2) / q14 for n in range(12)]
    profile = planar.make_triangular_profile()
    diffs = []
    for s, t in ((0.1, 0.2), (0.37, 0.45), (0.8, 0.05), (0.5, 0.5)):
        z = complex(2 * alpha * (mp.mpf(s) + tau * mp.mpf(t)))
        y = mp.sqrt(3) * alpha * t
        ours = -2 * y * y + _theta1_abs_log(mp.pi * (mp.mpf(s) + tau * mp.mpf(t)), q14, qpow)
        diffs.append(float(planar.log_profile(profile, z)) - float(ours))
    return max(diffs) - min(diffs)


def _extrapolate(values: dict[int, mp.mpf], e: mp.mpf):
    """Limit of the midpoint means and the gap to the next-coarser extrapolant."""
    grids = sorted(values)
    if e == int(e) and int(e) % 2 == 0:
        return values[grids[-1]], abs(values[grids[-1]] - values[grids[-2]])

    def solve(gs):
        rows = [[1] + [mp.power(mp.mpf(1) / g, 2 + e + 2 * j) for j in range(len(gs) - 1)] for g in gs]
        return mp.lu_solve(mp.matrix(rows), mp.matrix([values[g] for g in gs]))[0]

    best = solve(grids)
    return best, abs(best - solve(grids[1:]))


def planar_references() -> dict:
    levels = {}
    consts = None
    for m in RICHARDSON_GRIDS:
        t0 = time.time()
        levels[m], consts = _log_profile_rows(m)
        print(f"  midpoint grid {m}: {time.time() - t0:.1f} s", flush=True)
    theta_gap = _crosscheck_theta(consts)
    library_gap = _crosscheck_library(consts)
    print(f"  theta series vs mpmath.jtheta: {theta_gap:.1e}; library log P spread: {library_gap:.1e}")
    out = {}
    for beta in W.LATTICE_BETAS:
        b = mp.mpf(beta)
        moments = []
        for e in (b, 2 * b):
            means = {m: mp.fsum(mp.exp(e * lp) for row in rows for lp in row) / (m * m // 2)
                     for m, rows in levels.items()}
            moments.append(_extrapolate(means, e))
        (m1, g1), (m2, g2) = moments
        rho = 1 - m1 * m1 / m2
        # first-order propagation of the two extrapolation gaps into rho
        gap = 2 * abs(m1 / m2) * g1 + (m1 / m2) ** 2 * g2
        errors = {}
        for grid in W.LATTICE_GRIDS:
            got = planar.planar_lattice_density(beta, grid).rho
            errors[str(grid)] = float(abs(mp.mpf(got) - rho) / rho)
        out[repr(beta)] = {
            "rho": float(rho),
            "rho_digits": mp.nstr(rho, 25),
            "extrapolation_gap": float(gap),
            "seed_rel_err": errors,
            "tolerance": {g: tolerance(err) for g, err in errors.items()},
        }
        print(f"  rho({beta}) = {mp.nstr(rho, 20)} gap {float(gap):.1e} errors {errors}", flush=True)
    out["_crosscheck"] = {"theta_vs_jtheta_log_gap": theta_gap, "library_log_profile_spread": library_gap}
    return out


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def disk_references() -> dict:
    radii = np.linspace(*W.DISK_RADIUS_RANGE, 8)
    ks = range(W.MONOMIAL_DEGREES[0], W.MONOMIAL_DEGREES[1] + 1)
    amplitudes = (W.MONOMIAL_AMPLITUDE[0], 1.25, W.MONOMIAL_AMPLITUDE[1])
    inner = tight = 0.0
    for r in map(float, radii):
        for k in ks:
            for c in amplitudes:
                f = hyperbolic.DiskFunction(coeffs=(0.0,) * k + (c,))
                inner = max(inner, refs.rel_err(hyperbolic.hyperbolic_discrepancy(f, r), refs.disk_monomial(c, k, r)))
        for k in (ks[0], 6, ks[-1]):
            c = amplitudes[-1]
            f = hyperbolic.DiskFunction(coeffs=(0.0,) * k + (c,))
            tight = max(tight, refs.rel_err(hyperbolic.tight_discrepancy(f, r), refs.disk_monomial_tight(c, k, r)))
        print(f"  r={r:.3f}: inner {inner:.1e} tight {tight:.1e}", flush=True)
    rng = np.random.default_rng(0)
    gap = 0.0
    for degree in W.HALFDISK_DEGREES * 5:
        parts = rng.normal(scale=math.sqrt(0.5), size=(2, degree + 1))
        f = hyperbolic.DiskFunction(coeffs=tuple(parts[0] + 1j * parts[1]))
        gap = max(gap, hyperbolic.halfdisk_identity_check(f)[2])
    print(f"  half-disk gap {gap:.1e}")
    return {
        "sweep_max_rel_err": {"inner": inner, "tight": tight},
        "monomial_tolerance": tolerance(inner, SWEEP_TOL_FACTOR),
        "tight_tolerance": tolerance(tight, SWEEP_TOL_FACTOR),
        "sweep_max_halfdisk_gap": gap,
        "halfdisk_gap_tolerance": tolerance(gap, SWEEP_TOL_FACTOR),
    }


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _rotation(seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def solver_references() -> dict:
    quad = sphere.SphereQuadrature()
    closed = {1: refs.sphere_rho1, 2: refs.sphere_rho2}
    worst = {n: {repr(b): 0.0 for b in W.EXACT_BETAS} for n in closed}
    for beta in W.EXACT_BETAS:
        for n in closed:
            pts = (_rotation(n) @ np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]][:n]).T).T
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            rep = sphere.discrepancy(sphere.SphereConfiguration(points=pts), beta, quad)
            worst[n][repr(beta)] = refs.rel_err(rep.rho, closed[n](beta))
    flows = {}
    for n in W.FLOW_SIZES:
        flows[str(n)] = []
        for start in range(W.POOL_SIZE):
            config, trace = sphere.gradient_flow(n, W.FLOW_BETA, numerics.RngStream(seed=start), step=W.FLOW_STEP,
                                                 max_iters=W.FLOW_CAPS[n], tol=W.FLOW_TOL, quad=quad)
            rho = sphere.discrepancy(config, W.FLOW_BETA, quad).rho
            if n in closed:
                key = repr(W.FLOW_BETA)
                worst[n][key] = max(worst[n][key], refs.rel_err(rho, closed[n](W.FLOW_BETA)))
            flows[str(n)].append({"iterations": trace[-1][0], "objective": trace[-1][1], "rho": rho})
        print(f"  flows n={n}: iterations {[p['iterations'] for p in flows[str(n)]]}", flush=True)
    residuals = {
        str(n): [sphere.equilibrium_residual(sphere.random_configuration(n, numerics.RngStream(seed=start)),
                                             W.FLOW_BETA, quad) for start in range(W.POOL_SIZE)]
        for n in W.EQRES_SIZES
    }
    # Starts whose solve ends within 10% of the tolerance are skipped, so the
    # pinned iteration count does not hinge on the last digits of a residual.
    solves = []
    candidate = 0
    for degree in W.FOCK_START_DEGREES:
        kept = 0
        while kept < W.FOCK_STARTS_PER_DEGREE:
            parts = np.random.default_rng(2016 + candidate).normal(scale=math.sqrt(0.5), size=(2, degree + 1))
            candidate += 1
            start = [[float(x), float(y)] for x, y in zip(parts[0], parts[1])]
            f0 = fock.FockPolynomial(tuple(complex(x, y) for x, y in start))
            f, history = fock.fixed_point_solve(f0, W.FOCK_OMEGA, W.FOCK_ITERS, W.FOCK_TOL)
            print(f"  fock degree {degree}: {len(history)} iterations to {history[-1]:.3e}", flush=True)
            if history[-1] < 0.9 * W.FOCK_TOL:
                kept += 1
                solves.append({"start": start, "iterations": len(history), "residual": history[-1],
                               "moduli": [float(x) for x in np.abs(f.array())]})
    rng = np.random.default_rng(1)
    fock_err = 0.0
    for _ in range(8):
        a = complex(*rng.normal(scale=math.sqrt(0.5), size=2))
        for f in ((0j, a), (a,)):
            got = fock.cubic_projection(fock.FockPolynomial(f)).array()
            want = np.array(refs.fock_projection(f))
            fock_err = max(fock_err, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    return {
        "seed_rel_err": {"rho1": worst[1], "rho2": worst[2], "fock_projection": fock_err},
        "rho1_tolerance": {b: tolerance(e) for b, e in worst[1].items()},
        "rho2_tolerance": {b: tolerance(e) for b, e in worst[2].items()},
        "fock_tolerance": tolerance(fock_err),
        "flows": flows,
        "equilibrium_residual": residuals,
        "fock_solves": solves,
    }


def main() -> int:
    out = {}
    for name, derive in (("planar", planar_references), ("disk", disk_references), ("solvers", solver_references)):
        t0 = time.time()
        print(f"{name}:", flush=True)
        out[name] = derive()
        print(f"{name}: {time.time() - t0:.0f} s", flush=True)
    with open(refs.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    mp.mp.dps = DPS
    sys.exit(main())
