"""The four benchmark workloads: request streams, inputs from the seed, checks.

Each workload is a closed loop with one client: the worker issues the next
request only after the previous one returned.  A run is a whole number of
rounds.  Every round of a workload has the same composition (which calls, at
which sizes), so every run does the same mix of work and the latency
percentiles compare like with like across seeds and commits.  The seed picks
the order of the calls and their free inputs: coefficients, radii,
amplitudes, and starts drawn from the committed pools in references.json.

Library functions are looked up on their modules at call time, so the
tracer's rebound names are the ones called in a traced pass.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import refs
from refs import CheckFailed
from zeropack import fock, hyperbolic, numerics, planar, sphere

# lattice, per round: every beta at grid 512, one beta at 256 and two at 1024,
# both taken from a seeded cycle over the six betas, and a one-beta curve at
# 256.  As many requests sit below the 512 group as above it, so the median
# falls in the middle of that group rather than on the edge between sizes.
LATTICE_BETAS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
LATTICE_GRIDS = (256, 512, 1024)
LATTICE_PER_ROUND = {256: 1, 512: 6, 1024: 2}
LATTICE_SMALL_GRID = 256  # density_curve and the CLI requests

# disk: one fresh radius per round; the other disk requests draw their radius
# from the radii seen so far in the process, so most of them repeat one.
DISK_RADIUS_RANGE = (0.5, 0.95)
DISK_DEGREES = (1, 2, 3, 4, 6, 12, 24, 48)
DISK_SHAPES = ((1.0, 1.0), (1.0, 1.0), (0.5, 1.0), (1.0, 2.0),
               (2.0, 1.0), (1.5, 0.5), (0.75, 1.5), (1.0, 0.5))  # (alpha, beta)
MONOMIAL_DEGREES = (1, 12)  # inclusive range of k for c z^k
MONOMIAL_AMPLITUDE = (0.5, 2.0)
HALFDISK_DEGREES = (3, 12)
INEQUALITY_DEGREES = (4, 16)
INEQUALITY_POINTS = 4
# CLI: one `hyperbolic` request every round, so the CLI median is one of them;
# `verify` in the first round and `hyperbolic --tight` in the second.

# montecarlo: each configuration runs at threads = nproc, then at threads = 1.
GAF_CONFIGS = (("planar", 2.0), ("planar", 4.0), ("hyperbolic", 0.9), ("hyperbolic", 0.95))
GAF_TRIALS = 64
GAF_AMPLITUDE = (0.6, 1.4)
GAF_STDERRS = 5.0

# solvers: flows are capped where they do not converge within a few seconds.
FLOW_SIZES = (1, 2, 4, 8)
FLOW_BETA = 1.0
FLOW_STEP = 4.0  # the CLI's defaults, so CLI flows match library flows
FLOW_TOL = 1e-8
# n = 2 flows converge in 13 or 15 iterations depending on the start; the cap
# of 13 makes every start cost the same.
FLOW_CAPS = {1: 40, 2: 13, 4: 6, 8: 4}
EQRES_SIZES = (8, 16, 32)
EXACT_BETAS = (0.5, 1.0, 2.0, 3.0)
POOL_SIZE = 8  # seeded starts per flow size and per equilibrium_residual size
FOCK_OMEGA = 0.5
FOCK_ITERS = 200  # the CLI default for --solve
FOCK_TOL = 1e-12  # the tolerance the CLI passes
FOCK_START_DEGREES = (3, 4, 5, 6, 7, 8)
FOCK_STARTS_PER_DEGREE = 2
PIN_RTOL = 1e-8  # pinned solver outputs: roundoff may move them, a new path may not


@dataclass
class Request:
    """One call of the closed loop.

    `check` raises CheckFailed when the output misses its reference and
    returns the relative error against an independent reference, or None
    when the request has none.  `key` stores the output for a later CLI
    request with the same inputs, which names it as `twin`.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], float | None]
    key: str | None = None
    twin: str | None = None
    radius: float | None = None
    info: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.kind.startswith("cli.")


class Session:
    """State shared by the requests of one pass: inputs, twins, radii, CLI set-up."""

    def __init__(self, root: str, seed: int, tmpdir: str, nproc: int):
        self.root = root
        self.tmpdir = tmpdir
        self.nproc = nproc
        self.rng = np.random.default_rng(seed)
        self.refs = refs.load_references()
        self.outputs: dict[str, Any] = {}
        self.latencies: dict[str, float] = {}
        self.radii: list[float] = []
        self.lattice_cycle = [LATTICE_BETAS[k] for k in self.rng.permutation(len(LATTICE_BETAS))]
        self.quad = None

    def cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "zeropack.cli", *args],
            cwd=self.root, capture_output=True, timeout=120, check=False,
        )

    def twin(self, key: str):
        if key not in self.outputs:
            raise CheckFailed(f"in-process twin {key} has no output")
        return self.outputs[key]

    def shuffled(self, items: list) -> list:
        return [items[k] for k in self.rng.permutation(len(items))]

    def complex_gaussians(self, n: int) -> list[complex]:
        parts = self.rng.normal(scale=math.sqrt(0.5), size=(2, n))
        return [complex(x, y) for x, y in zip(parts[0], parts[1])]


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"non-finite value {v!r}")


def _reject_constant(name: str):
    raise CheckFailed(f"CLI printed non-strict JSON constant {name}")


def cli_json(proc: subprocess.CompletedProcess) -> dict:
    """Strict JSON payload of a CLI run that exited 0."""
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-300:]
        raise CheckFailed(f"CLI exited {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"CLI stdout is not JSON: {exc}") from exc


def _same(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"CLI {what} {got!r} differs from the in-process {want!r}")


def _pairs(coeffs) -> str:
    return json.dumps([[c.real, c.imag] for c in map(complex, coeffs)])


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def _planar_ref(s: Session, beta: float) -> tuple[float, dict]:
    entry = s.refs["planar"][repr(beta)]
    return entry["rho"], entry["tolerance"]


def _check_report(s: Session, beta: float, grid: int, rep, info: dict) -> float:
    _finite(rep.rho, rep.m1, rep.m2, rep.error_estimate)
    ref, tol = _planar_ref(s, beta)
    info.update(beta=beta, grid=grid, error_estimate=rep.error_estimate, abs_err=abs(rep.rho - ref))
    return refs.check_rel(rep.rho, ref, tol[str(grid)], f"rho({beta}) at grid {grid}")


def _planar_request(s: Session, beta: float, grid: int, key: str) -> Request:
    req = Request("planar.planar_lattice_density",
                  lambda: planar.planar_lattice_density(beta, grid), None, key=key)
    req.check = lambda rep: _check_report(s, beta, grid, rep, req.info)
    return req


def _curve_request(s: Session, betas: list[float], key: str) -> Request:
    def check(rows):
        if [b for b, _ in rows] != betas:
            raise CheckFailed(f"density_curve rows {[b for b, _ in rows]} != betas {betas}")
        return max(_check_report(s, b, LATTICE_SMALL_GRID, rep, {}) for b, rep in rows)

    return Request("planar.density_curve",
                   lambda: planar.density_curve(betas, LATTICE_SMALL_GRID), check, key=key)


def _cli_planar(s: Session, beta: float, twin: str) -> Request:
    def check(proc):
        payload = cli_json(proc)
        rep = s.twin(twin)
        for name in ("rho", "m1", "m2", "b_opt", "error_estimate"):
            _same(payload[name], getattr(rep, name), name)
        return None

    args = ("planar", "--beta", repr(beta), "--grid", str(LATTICE_SMALL_GRID))
    return Request("cli.planar", lambda: s.cli(*args), check, twin=twin)


def _cli_curve(s: Session, betas: list[float], twin: str, path: str) -> Request:
    def call():
        proc = s.cli("curve", "--betas", ",".join(map(repr, betas)),
                     "--grid", str(LATTICE_SMALL_GRID), "--out", path)
        text = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        return proc, text

    def check(out):
        proc, text = out
        if proc.returncode != 0 or text is None:
            raise CheckFailed(f"curve CLI exited {proc.returncode} and wrote {'no' if text is None else 'a'} file")
        lines = text.splitlines()
        rows = s.twin(twin)
        if len(lines) != len(rows) + 1:
            raise CheckFailed(f"curve CSV has {len(lines) - 1} rows, expected {len(rows)}")
        for line, (beta, rep) in zip(lines[1:], rows):
            values = [float(x) for x in line.split(",")]
            _finite(*values)
            want = [beta, rep.rho, rep.m1, rep.m2, rep.b_opt, rep.error_estimate]
            _same(values, want, f"curve row at beta {beta}")
        return None

    return Request("cli.curve", call, check, twin=twin)


def lattice_round(s: Session, i: int) -> list[Request]:
    jobs = []
    for grid in LATTICE_GRIDS:
        count = LATTICE_PER_ROUND[grid]
        jobs += [(s.lattice_cycle[(count * i + k) % len(LATTICE_BETAS)], grid) for k in range(count)]
    reqs = [_planar_request(s, b, g, f"planar:{b}:{g}:{i}") for b, g in jobs]
    curve_betas = [float(s.rng.choice(LATTICE_BETAS))]
    reqs.append(_curve_request(s, curve_betas, f"curve:{i}"))
    reqs = s.shuffled(reqs)
    cli_beta = s.lattice_cycle[(LATTICE_PER_ROUND[256] * i) % len(LATTICE_BETAS)]
    reqs.append(_cli_planar(s, cli_beta, f"planar:{cli_beta}:{LATTICE_SMALL_GRID}:{i}"))
    reqs.append(_cli_curve(s, curve_betas, f"curve:{i}", os.path.join(s.tmpdir, f"curve-{i}.csv")))
    return reqs


def lattice_warm(s: Session) -> None:
    planar.planar_lattice_density(1.0, 16)  # builds the cached default profile


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def _disk_request(s: Session, coeffs, r: float, alpha: float, beta: float, key: str | None) -> Request:
    def call():
        f = hyperbolic.DiskFunction(coeffs=tuple(coeffs))
        return hyperbolic.hyperbolic_discrepancy(f, r, alpha=alpha, beta=beta)

    def check(value):
        _finite(value)
        if value < 0.0:
            raise CheckFailed(f"mean-square discrepancy {value!r} is negative")
        return None

    return Request("hyperbolic.hyperbolic_discrepancy", call, check, key=key, radius=r)


def _monomial(s: Session) -> tuple[int, float, tuple]:
    k = int(s.rng.integers(MONOMIAL_DEGREES[0], MONOMIAL_DEGREES[1] + 1))
    c = float(s.rng.uniform(*MONOMIAL_AMPLITUDE))
    return k, c, (0.0,) * k + (c,)


def _monomial_request(s: Session, r: float, tight: bool, key: str | None) -> Request:
    k, c, coeffs = _monomial(s)
    tol = s.refs["disk"]["tight_tolerance" if tight else "monomial_tolerance"]

    def call():
        f = hyperbolic.DiskFunction(coeffs=coeffs)
        return hyperbolic.tight_discrepancy(f, r) if tight else hyperbolic.hyperbolic_discrepancy(f, r)

    def check(value):
        ref = refs.disk_monomial_tight(c, k, r) if tight else refs.disk_monomial(c, k, r)
        return refs.check_rel(value, ref, tol, f"{'tight' if tight else 'inner'} value of {c!r} z^{k} at r={r!r}")

    kind = "hyperbolic.tight_discrepancy" if tight else "hyperbolic.hyperbolic_discrepancy"
    req = Request(kind, call, check, key=key, radius=r)
    req.info.update(coeffs=coeffs)
    return req


def _halfdisk_request(s: Session, degree: int) -> Request:
    coeffs = tuple(s.complex_gaussians(degree + 1))
    tol = s.refs["disk"]["halfdisk_gap_tolerance"]

    def check(out):
        lhs, rhs, gap = out
        _finite(lhs, rhs, gap)
        if not gap <= tol:
            raise CheckFailed(f"half-disk identity gap {gap:.3e} > {tol:.1e}")
        return None

    return Request("hyperbolic.halfdisk_identity_check",
                   lambda: hyperbolic.halfdisk_identity_check(hyperbolic.DiskFunction(coeffs=coeffs)), check)


def _inequality_request(s: Session, degree: int, r: float) -> Request:
    coeffs = tuple(s.complex_gaussians(degree + 1))
    radii = 0.9 * r * np.sqrt(s.rng.uniform(size=INEQUALITY_POINTS))
    angles = s.rng.uniform(0.0, 2.0 * math.pi, size=INEQUALITY_POINTS)
    points = [complex(z) for z in radii * np.exp(1j * angles)]

    def check(rep):
        _finite(rep.value_margin, rep.derivative_margin, rep.gradient_margin, rep.dilational_margin)
        if not rep.all_ok:
            raise CheckFailed(f"inequality_suite failed: {rep}")
        return None

    return Request("hyperbolic.inequality_suite",
                   lambda: hyperbolic.inequality_suite(hyperbolic.DiskFunction(coeffs=coeffs), r, points), check)


def _cli_hyperbolic(s: Session, twin: Request, alpha: float, beta: float, tight: bool) -> Request:
    r = twin.radius
    args = ["hyperbolic", "--coeffs", _pairs(twin.info["coeffs"]), "--r", repr(r)]
    args += ["--tight"] if tight else ["--alpha", repr(alpha), "--beta", repr(beta)]

    def check(proc):
        _same(cli_json(proc)["value"], s.twin(twin.key), "value")
        return None

    return Request("cli.hyperbolic", lambda: s.cli(*args), check, twin=twin.key)


def _cli_verify(s: Session, key: str) -> Request:
    def check(proc):
        payload = cli_json(proc)
        _same(payload, s.twin(key).to_json_dict(), "report")
        if not s.twin(key).all_pass:
            raise CheckFailed("proof_constants_report does not pass")
        return None

    return Request("cli.verify", lambda: s.cli("verify"), check, twin=key)


def disk_round(s: Session, i: int) -> list[Request]:
    fresh = float(s.rng.uniform(*DISK_RADIUS_RANGE))
    s.radii.append(fresh)

    def pooled() -> float:
        return float(s.radii[s.rng.integers(len(s.radii))])

    candidates = []
    for n, (degree, (alpha, beta)) in enumerate(zip(s.shuffled(list(DISK_DEGREES)), s.shuffled(list(DISK_SHAPES)))):
        coeffs = tuple(s.complex_gaussians(degree + 1))
        req = _disk_request(s, coeffs, pooled(), alpha, beta, f"disk:{i}:{n}")
        req.info.update(coeffs=coeffs, alpha=alpha, beta=beta)
        candidates.append(req)
    tight = _monomial_request(s, pooled(), True, f"tight:{i}")
    rest = candidates + [_monomial_request(s, pooled(), False, None), tight]
    rest += [_halfdisk_request(s, d) for d in HALFDISK_DEGREES]
    rest += [_inequality_request(s, d, pooled()) for d in INEQUALITY_DEGREES]
    reqs = [_monomial_request(s, fresh, False, None)] + s.shuffled(rest)

    twin = candidates[0]
    reqs.append(_cli_hyperbolic(s, twin, twin.info["alpha"], twin.info["beta"], False))
    if i == 0:
        report = Request("hyperbolic.proof_constants_report", hyperbolic.proof_constants_report,
                         lambda rep: None, key=f"verify:{i}")
        reqs += [report, _cli_verify(s, report.key)]
    elif i == 1:
        reqs.append(_cli_hyperbolic(s, tight, 1.0, 1.0, True))
    return reqs


def disk_warm(s: Session) -> None:
    # builds the cached D(0, 1/2) rule every half-disk check uses
    hyperbolic.halfdisk_identity_check(hyperbolic.DiskFunction(coeffs=(1.0,)))


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def _gaf_call(mode: str, extent: float, b: float, seed: int, threads: int):
    rng = numerics.RngStream(seed=seed)
    if mode == "planar":
        n = planar.planar_gaf_truncation(extent)
        return planar.planar_gaf_mc(extent, b, n, GAF_TRIALS, rng, threads=threads)
    n = hyperbolic.hyperbolic_gaf_truncation(extent)
    return hyperbolic.hyperbolic_gaf_mc(extent, b, n, GAF_TRIALS, rng, threads=threads)


def _gaf_request(s: Session, mode: str, extent: float, b: float, seed: int, threads: int,
                 key: str, copy_of: str | None) -> Request:
    def check(out):
        mean, stderr = out
        _finite(mean, stderr)
        expected = refs.gaf_expected(b)
        if not (stderr > 0.0 and abs(mean - expected) <= GAF_STDERRS * stderr):
            raise CheckFailed(f"GAF mean {mean!r} is not within {GAF_STDERRS} x {stderr!r} of {expected!r}")
        if copy_of is not None and [x.hex() for x in out] != [x.hex() for x in s.twin(copy_of)]:
            raise CheckFailed(f"threads={threads} result {out!r} differs from threads={s.nproc} {s.twin(copy_of)!r}")
        return None

    kind = f"{mode}.{mode}_gaf_mc"
    req = Request(kind, lambda: _gaf_call(mode, extent, b, seed, threads), check, key=key)
    req.info.update(mode=mode, extent=extent, b=b, seed=seed, threads=threads)
    return req


def _cli_gaf(s: Session, twin: Request) -> Request:
    info = twin.info
    flag = "--R" if info["mode"] == "planar" else "--r"
    args = ("gaf", "--mode", info["mode"], "--b", repr(info["b"]), flag, repr(info["extent"]),
            "--trials", str(GAF_TRIALS), "--seed", str(info["seed"]), "--threads", str(info["threads"]))

    def check(proc):
        payload = cli_json(proc)
        _same([payload["mean"], payload["stderr"]], list(s.twin(twin.key)), "mean and stderr")
        return None

    return Request("cli.gaf", lambda: s.cli(*args), check, twin=twin.key)


def montecarlo_round(s: Session, i: int) -> list[Request]:
    reqs = []
    for mode, extent in s.shuffled(list(GAF_CONFIGS)):
        b = float(s.rng.uniform(*GAF_AMPLITUDE))
        seed = int(s.rng.integers(2**32))
        key = f"gaf:{mode}:{extent}:{i}"
        first = _gaf_request(s, mode, extent, b, seed, s.nproc, key, None)
        reqs += [first, _gaf_request(s, mode, extent, b, seed, 1, key + ":1", key)]
    # the CLI repeats the smaller configuration of one mode, alternating modes
    mode, extent = GAF_CONFIGS[0] if i % 2 == 0 else GAF_CONFIGS[2]
    reqs.append(_cli_gaf(s, next(r for r in reqs if r.key == f"gaf:{mode}:{extent}:{i}")))
    return reqs


def montecarlo_warm(s: Session) -> None:
    pass


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _flow_requests(s: Session, n: int, start: int, i: int) -> list[Request]:
    pin = s.refs["solvers"]["flows"][str(n)][start]
    key = f"flow:{n}:{i}"

    def call():
        return sphere.gradient_flow(n, FLOW_BETA, numerics.RngStream(seed=start), step=FLOW_STEP,
                                    max_iters=FLOW_CAPS[n], tol=FLOW_TOL, quad=s.quad)

    def check_flow(out):
        _, trace = out
        iterations, objective, residual = trace[-1]
        _finite(objective, residual)
        if iterations != pin["iterations"]:
            raise CheckFailed(f"n={n} flow from start {start} took {iterations} iterations, pinned {pin['iterations']}")
        refs.check_rel(objective, pin["objective"], PIN_RTOL, f"n={n} flow objective")
        return None

    def check_rho(rep):
        _finite(rep.rho, rep.error_estimate)
        if n == 1:
            tol = s.refs["solvers"]["rho1_tolerance"][repr(FLOW_BETA)]
            return refs.check_rel(rep.rho, refs.sphere_rho1(FLOW_BETA), tol, "n=1 flow rho")
        if n == 2:
            tol = s.refs["solvers"]["rho2_tolerance"][repr(FLOW_BETA)]
            return refs.check_rel(rep.rho, refs.sphere_rho2(FLOW_BETA), tol, "n=2 flow rho")
        refs.check_rel(rep.rho, pin["rho"], PIN_RTOL, f"n={n} flow rho")
        return None

    flow = Request("sphere.gradient_flow", call, check_flow, key=key)
    flow.info.update(n=n, start=start)
    rho = Request("sphere.discrepancy",
                  lambda: sphere.discrepancy(s.twin(key)[0], FLOW_BETA, s.quad), check_rho, key=key + ":rho")
    return [flow, rho]


def _random_rotation(s: Session) -> np.ndarray:
    q, r = np.linalg.qr(s.rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _exact_request(s: Session, n: int) -> Request:
    beta = float(s.rng.choice(EXACT_BETAS))
    pts = _random_rotation(s) @ np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]][:n]).T
    pts = pts.T / np.linalg.norm(pts.T, axis=1, keepdims=True)
    ref = refs.sphere_rho1(beta) if n == 1 else refs.sphere_rho2(beta)
    tol = s.refs["solvers"]["rho1_tolerance" if n == 1 else "rho2_tolerance"][repr(beta)]

    def check(rep):
        _finite(rep.rho)
        return refs.check_rel(rep.rho, ref, tol, f"{'single point' if n == 1 else 'antipodal pair'} rho({beta})")

    return Request("sphere.discrepancy",
                   lambda: sphere.discrepancy(sphere.SphereConfiguration(points=pts), beta, s.quad), check)


def _eqres_request(s: Session, n: int, start: int) -> Request:
    pin = s.refs["solvers"]["equilibrium_residual"][str(n)][start]

    def call():
        config = sphere.random_configuration(n, numerics.RngStream(seed=start))
        return sphere.equilibrium_residual(config, FLOW_BETA, s.quad)

    def check(value):
        refs.check_rel(value, pin, PIN_RTOL, f"n={n} equilibrium residual")
        return None

    return Request("sphere.equilibrium_residual", call, check)


def _fock_solve_request(s: Session, start: int, key: str) -> Request:
    pin = s.refs["solvers"]["fock_solves"][start]
    coeffs = tuple(complex(re, im) for re, im in pin["start"])

    def call():
        return fock.fixed_point_solve(fock.FockPolynomial(coeffs), FOCK_OMEGA, FOCK_ITERS, FOCK_TOL)

    def check(out):
        f, history = out
        _finite(*history)
        if len(history) != pin["iterations"] or not history[-1] < FOCK_TOL:
            raise CheckFailed(f"solve from start {start}: {len(history)} iterations to residual {history[-1]:.2e}, "
                              f"pinned {pin['iterations']} to below {FOCK_TOL}")
        moduli = np.abs(f.array())
        if moduli.shape != (len(pin["moduli"]),) or np.max(np.abs(moduli - pin["moduli"])) > PIN_RTOL:
            raise CheckFailed(f"solve from start {start} reached a different fixed point")
        return None

    req = Request("fock.fixed_point_solve", call, check, key=key)
    req.info.update(coeffs=coeffs)
    return req


def _fock_fixed_point_requests(s: Session) -> list[Request]:
    """Projection and residual at the closed-form fixed points a z and c.

    a z is stationary at omega = |a|^2 / 4 and the constant c at omega = |c|^2 / 2.
    """
    tol = s.refs["solvers"]["fock_tolerance"]
    a, c = s.complex_gaussians(2)
    reqs = []
    for f, omega in (((0j, a), abs(a) ** 2 / 4.0), ((c,), abs(c) ** 2 / 2.0)):
        want = np.array(refs.fock_projection(f))

        def check_projection(g, want=want):
            got = g.array()
            if got.shape != want.shape:
                raise CheckFailed(f"projection has {got.size} coefficients, expected {want.size}")
            _finite(*got.real, *got.imag)
            err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            if not err <= tol:
                raise CheckFailed(f"projection relative error {err:.2e} > {tol:.1e}")
            return err

        def check_residual(value, omega=omega, f=f):
            _finite(value)
            if not value <= tol * omega * abs(f[-1]):
                raise CheckFailed(f"stationary residual {value!r} at a closed-form fixed point")
            return None

        reqs.append(Request("fock.cubic_projection",
                            lambda f=f: fock.cubic_projection(fock.FockPolynomial(f)), check_projection))
        reqs.append(Request("fock.stationary_residual",
                            lambda f=f, omega=omega: fock.stationary_residual(fock.FockPolynomial(f), omega),
                            check_residual))
    return reqs


def _cli_sphere(s: Session, start: int, key: str) -> Request:
    args = ("sphere", "--n", "2", "--beta", repr(FLOW_BETA), "--flow", "--seed", str(start),
            "--iters", str(FLOW_CAPS[2]))

    def check(proc):
        payload = cli_json(proc)
        config, trace = s.twin(key)
        _same(payload["points"], config.points.tolist(), "points")
        _same([payload["iters"], payload["residual"]], [trace[-1][0], trace[-1][2]], "iterations and residual")
        _same(payload["rho"], s.twin(key + ":rho").rho, "rho")
        return None

    return Request("cli.sphere", lambda: s.cli(*args), check, twin=key)


def _cli_fock(s: Session, twin: Request) -> Request:
    args = ("fock", "--coeffs", _pairs(twin.info["coeffs"]), "--omega", repr(FOCK_OMEGA), "--solve",
            "--iters", str(FOCK_ITERS))

    def check(proc):
        payload = cli_json(proc)
        f, history = s.twin(twin.key)
        _same(payload["coeffs"], [[c.real, c.imag] for c in f.coeffs], "coefficients")
        _same([payload["residual"], payload["iters"]], [history[-1], len(history)], "residual and iterations")
        return None

    return Request("cli.fock", lambda: s.cli(*args), check, twin=twin.key)


def solvers_round(s: Session, i: int) -> list[Request]:
    units = []
    flow_starts = {}
    for n in FLOW_SIZES:
        flow_starts[n] = int(s.rng.integers(POOL_SIZE))
        units.append(_flow_requests(s, n, flow_starts[n], i))
    units += [[_exact_request(s, n)] for n in (1, 2)]
    units += [[_eqres_request(s, n, int(s.rng.integers(POOL_SIZE)))] for n in EQRES_SIZES]
    solve = _fock_solve_request(s, int(s.rng.integers(len(s.refs["solvers"]["fock_solves"]))), f"fock:{i}")
    units.append([solve])
    units += [[r] for r in _fock_fixed_point_requests(s)]
    reqs = [r for unit in s.shuffled(units) for r in unit]
    # the CLI median is one of the sphere flows, one in every round
    reqs.append(_cli_sphere(s, flow_starts[2], f"flow:2:{i}"))
    if i == 1:
        reqs.append(_cli_fock(s, solve))
    return reqs


def solvers_warm(s: Session) -> None:
    s.quad = sphere.SphereQuadrature()


WORKLOADS = {
    "lattice": (lattice_warm, lattice_round),
    "disk": (disk_warm, disk_round),
    "montecarlo": (montecarlo_warm, montecarlo_round),
    "solvers": (solvers_warm, solvers_round),
}
