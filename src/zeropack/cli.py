"""Command-line front end: every computation behind one executable.

Subcommands map one-to-one onto the library surface: `planar` and `curve`
for the lattice profile densities, `gaf` for the Monte Carlo averages,
`sphere` for configuration energies and the gradient flow, `hyperbolic`
for disk-candidate witnesses, `fock` for the cubic projection and its
fixed points, and `verify` for the explicit proof-constant checks.

Reports are UTF-8 JSON on stdout (or written to --out); `curve` emits CSV.
Identical invocations produce byte-identical reports: output carries no
clocks and all randomness flows from the --seed argument.  Exit codes:
0 success, 2 for every ValueError (parameter/validation error), 3 for every
ArithmeticError (numeric failure, including StepCollapseError and
DivergenceError).

Each handler imports the library module it runs, so a request loads only
that module and its dependencies, and `--version` or a usage error loads
no numpy at all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__

_DENSITY_FIELDS = ("rho", "m1", "m2", "b_opt", "error_estimate")
_GRID_HELP = ("finest midpoint grid of the extrapolation ladder, 16-8192, rounded up to a "
              "multiple of 8; 128 and up give one report")
_COEFFS_HELP = "JSON array: numbers or [re, im] pairs"


class CliError(ValueError):
    """Parameter or validation problem; like every ValueError, maps to exit code 2."""


def _is_number(x) -> bool:
    """A JSON number; true and false parse as bool, a subclass of int, and are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    """Parse a JSON array of coefficients: numbers or [re, im] pairs."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"--coeffs is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise CliError("--coeffs must be a nonempty JSON array")
    out = []
    for i, item in enumerate(raw):
        if _is_number(item):
            parts = [item]
        elif isinstance(item, list) and len(item) == 2 and all(map(_is_number, item)):
            parts = item
        else:
            raise CliError(f"coefficient {item!r} must be a number or a [re, im] pair")
        try:
            out.append(complex(*parts))
        except OverflowError as exc:
            raise CliError(f"coefficient {i} lies beyond the double range") from exc
    return tuple(out)


def _complex_pairs(coeffs) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _finite_float(text: str) -> float:
    """argparse type for float flags: inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _requires(ns, switch: str, *flags: str) -> None:
    """Reject each of `flags` given without the boolean `switch` that enables it."""
    if not getattr(ns, switch):
        for flag in flags:
            if getattr(ns, flag) is not None:
                raise CliError(f"--{flag} requires --{switch}")


def _write(text: str, path: str | None) -> None:
    """The one report writer: stdout, or the same bytes to `path` (unwritable: exit 2)."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _emit(payload: dict, path: str | None) -> None:
    """Write `payload` as strict JSON; a non-finite value is a numeric failure."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ArithmeticError(f"report holds a non-finite value: {exc}") from exc
    _write(text, path)


def _report(ns, parameters: dict, payload: dict, *, seed=None, threads=None) -> int:
    """Emit `payload` with the provenance block last; seed and threads only where they act."""
    recorded = {"seed": seed, "threads": threads}
    payload["provenance"] = {
        "package": f"zeropack {__version__}",
        "command": ns.command,
        "parameters": parameters,
        **{key: int(value) for key, value in recorded.items() if value is not None},
    }
    _emit(payload, ns.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_planar(ns) -> int:
    from . import planar

    rep = planar.planar_lattice_density(ns.beta, ns.grid)
    parameters = {"beta": ns.beta, "grid": ns.grid}
    fields = {name: getattr(rep, name) for name in _DENSITY_FIELDS}
    return _report(ns, parameters, {**parameters, **fields})


def _cmd_curve(ns) -> int:
    """Write one CSV row per beta: 17 significant digits, fixed column order."""
    try:
        betas = [float(tok) for tok in ns.betas.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"--betas must be a comma-separated float list: {exc}")
    if not betas:
        raise CliError("--betas is empty")
    if not all(math.isfinite(b) for b in betas):
        raise CliError("--betas must be finite")
    from . import planar

    lines = [",".join(("beta", *_DENSITY_FIELDS))]
    for beta, rep in planar.density_curve(betas, ns.grid):
        values = (beta, *(getattr(rep, name) for name in _DENSITY_FIELDS))
        lines.append(",".join(f"{x:.17g}" for x in values))
    _write("\n".join(lines) + "\n", ns.out)
    return 0


def _gaf_mode(mode: str):
    """(extent flag, truncation degree, Monte Carlo) of a gaf mode; imports only its module."""
    if mode == "planar":
        from . import planar

        return "R", planar.planar_gaf_truncation, planar.planar_gaf_mc
    from . import hyperbolic

    return "r", hyperbolic.hyperbolic_gaf_truncation, hyperbolic.hyperbolic_gaf_mc


def _cmd_gaf(ns) -> int:
    from .numerics import RngStream, resolve_threads

    threads = resolve_threads(ns.threads)
    flag, truncation, monte_carlo = _gaf_mode(ns.mode)
    other = "r" if flag == "R" else "R"
    extent = getattr(ns, flag)
    if extent is None:
        raise CliError(f"--mode {ns.mode} requires --{flag}")
    if getattr(ns, other) is not None:
        raise CliError(f"--mode {ns.mode} takes --{flag}, not --{other}")
    N = truncation(extent)
    mean, stderr = monte_carlo(
        extent, ns.b, N, ns.trials, RngStream(seed=ns.seed), threads=threads
    )
    parameters = {"mode": ns.mode, "b": ns.b, flag: extent, "trials": ns.trials}
    payload = {**parameters, "truncation_N": N, "mean": mean, "stderr": stderr}
    return _report(ns, parameters, payload, seed=ns.seed, threads=threads)


def _cmd_sphere(ns) -> int:
    _requires(ns, "flow", "step", "iters", "tol")
    from . import sphere
    from .numerics import RngStream

    rng = RngStream(seed=ns.seed)
    quad = sphere.SphereQuadrature()
    quad.check_points(ns.n)
    if ns.flow:
        step = 4.0 if ns.step is None else ns.step
        iters = 500 if ns.iters is None else ns.iters
        tol = 1e-8 if ns.tol is None else ns.tol
        config, trace = sphere.gradient_flow(
            ns.n, ns.beta, rng, step=step, max_iters=iters, tol=tol, quad=quad
        )
        iterations = trace[-1][0]
        residual = trace[-1][2]
    else:
        config = sphere.random_configuration(ns.n, rng)
        residual = sphere.equilibrium_residual(config, ns.beta, quad)
        iterations = 0
    rep = sphere.discrepancy(config, ns.beta, quad)
    payload = {
        "n": ns.n,
        "beta": ns.beta,
        "points": [[float(x) for x in p] for p in config.points],
        "rho": rep.rho,
        "b_opt": rep.b_opt,
        "error_estimate": rep.error_estimate,
        "residual": residual,
        "iters": iterations,
    }
    parameters = {"n": ns.n, "beta": ns.beta, "flow": ns.flow}
    return _report(ns, parameters, payload, seed=ns.seed)


def _cmd_hyperbolic(ns) -> int:
    coeffs = _parse_coeffs(ns.coeffs)
    from . import hyperbolic

    f = hyperbolic.DiskFunction(coeffs=coeffs)
    alpha = 1.0 if ns.alpha is None else ns.alpha
    beta = 1.0 if ns.beta is None else ns.beta
    if ns.tight and (alpha != 1.0 or beta != 1.0):
        raise CliError("--tight is defined for alpha = beta = 1 only")
    if ns.tight:
        value = hyperbolic.tight_discrepancy(f, ns.r)
    else:
        value = hyperbolic.hyperbolic_discrepancy(f, ns.r, alpha=alpha, beta=beta)
    parameters = {
        "r": ns.r, "alpha": alpha, "beta": beta, "tight": bool(ns.tight), "degree": f.degree
    }
    return _report(ns, parameters, {**parameters, "value": value})


def _cmd_fock(ns) -> int:
    _requires(ns, "solve", "iters")
    coeffs = _parse_coeffs(ns.coeffs)
    from . import fock

    f = fock.FockPolynomial(coeffs=coeffs)
    payload = {"omega": ns.omega, "mode": "solve" if ns.solve else "project"}
    if ns.solve:
        iters = 200 if ns.iters is None else ns.iters
        solution, history = fock.fixed_point_solve(f, ns.omega, iters, 1e-12)
        payload.update(coeffs=_complex_pairs(solution.coeffs), residual=history[-1],
                       iters=len(history))
        parameters = {"omega": ns.omega, "solve": True, "iters": iters}
    else:
        payload.update(coeffs=_complex_pairs(fock.cubic_projection(f).coeffs),
                       residual=fock.stationary_residual(f, ns.omega))
        parameters = {"omega": ns.omega, "solve": False}
    return _report(ns, parameters, payload)


def _cmd_verify(ns) -> int:
    """The proof-constant report as it stands: it echoes no parameters and has no provenance."""
    from . import proof

    report = proof.proof_constants_report()
    _emit(report.to_json_dict(), ns.out)
    return 0 if report.all_pass else 3


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _subcommand(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    """Add the subparser `name` that runs `handler`; its --out is added after all flags."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeropack",
        description="Zero-packing discrepancy densities and their verifiers.",
    )
    parser.add_argument("--version", action="version", version=f"zeropack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "planar", _cmd_planar, "triangular-lattice profile density")
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--grid", type=int, default=1024, help=_GRID_HELP)

    p = _subcommand(sub, "curve", _cmd_curve, "density across a list of beta values")
    p.add_argument("--betas", required=True, help="comma-separated floats")
    p.add_argument("--grid", type=int, default=1024, help=_GRID_HELP)

    p = _subcommand(sub, "gaf", _cmd_gaf, "Gaussian analytic function Monte Carlo")
    p.add_argument("--mode", choices=("planar", "hyperbolic"), required=True)
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--R", type=_finite_float, help="planar radius")
    p.add_argument("--r", type=_finite_float, help="hyperbolic radius")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int,
                   help="most worker threads (default 1); results never depend on it, and it acts "
                        "only on trial grids of at least 20480 points (radii x angles)")

    p = _subcommand(sub, "sphere", _cmd_sphere, "monopole configuration discrepancy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--flow", action="store_true")
    p.add_argument("--step", type=_finite_float)
    p.add_argument("--iters", type=int)
    p.add_argument("--tol", type=_finite_float)
    p.add_argument("--seed", type=int, required=True)

    p = _subcommand(sub, "hyperbolic", _cmd_hyperbolic, "disk-candidate discrepancy witness")
    p.add_argument("--coeffs", required=True, help=_COEFFS_HELP)
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    p.add_argument("--tight", action="store_true")

    p = _subcommand(sub, "fock", _cmd_fock, "cubic projection / stationary solve")
    p.add_argument("--coeffs", required=True, help=_COEFFS_HELP)
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--solve", action="store_true")
    p.add_argument("--iters", type=int)

    _subcommand(sub, "verify", _cmd_verify, "explicit proof-constant checks")

    # --out goes last so that every usage line keeps ending with it;
    # `curve` has no stdout form.
    for name, p in sub.choices.items():
        p.add_argument("--out", required=name == "curve")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
