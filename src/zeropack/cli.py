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

_CURVE_HEADER = "beta,rho,m1,m2,b_opt,error_estimate"
_GRID_HELP = "finest midpoint grid of the extrapolation ladder, 16-8192; 128 and up give one report"


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
            raise CliError(
                f"coefficient {item!r} must be a number or a [re, im] pair"
            )
        try:
            out.append(complex(*parts))
        except OverflowError as exc:
            raise CliError(f"coefficient {i} lies beyond the double range") from exc
    return tuple(out)


def _complex_pairs(coeffs) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _provenance(command: str, parameters: dict, seed=None, threads=None) -> dict:
    block = {
        "package": f"zeropack {__version__}",
        "command": command,
        "parameters": parameters,
    }
    if seed is not None:
        block["seed"] = int(seed)
    if threads is not None:
        block["threads"] = int(threads)
    return block


def _finite_float(text: str) -> float:
    """argparse type for float flags: inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _emit(payload: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ArithmeticError(f"report holds a non-finite value: {exc}") from exc
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from exc


def emit_curve(rows, path: str) -> None:
    """Write (beta, DiscrepancyReport) rows as deterministic CSV.

    One row per beta, 17 significant digits, fixed column order; identical
    inputs give byte-identical files.
    """
    rows = list(rows)
    if not rows:
        raise CliError("curve needs at least one beta")
    lines = [_CURVE_HEADER]
    for beta, rep in rows:
        lines.append(
            ",".join(
                f"{x:.17g}"
                for x in (
                    beta,
                    rep.rho,
                    rep.m1,
                    rep.m2,
                    rep.b_opt,
                    rep.error_estimate,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_planar(ns) -> int:
    from . import planar

    rep = planar.planar_lattice_density(ns.beta, ns.grid)
    payload = {
        "beta": ns.beta,
        "grid": ns.grid,
        "rho": rep.rho,
        "m1": rep.m1,
        "m2": rep.m2,
        "b_opt": rep.b_opt,
        "error_estimate": rep.error_estimate,
        "provenance": _provenance(
            "planar", {"beta": ns.beta, "grid": ns.grid}
        ),
    }
    _emit(payload, ns.out)
    return 0


def _cmd_curve(ns) -> int:
    try:
        betas = [float(tok) for tok in ns.betas.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"--betas must be a comma-separated float list: {exc}")
    if not betas:
        raise CliError("--betas is empty")
    if not all(math.isfinite(b) for b in betas):
        raise CliError("--betas must be finite")
    from . import planar

    rows = planar.density_curve(betas, ns.grid)
    emit_curve(rows, ns.out)
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
    payload = {
        "mode": ns.mode,
        "b": ns.b,
        flag: extent,
        "trials": ns.trials,
        "truncation_N": N,
        "mean": mean,
        "stderr": stderr,
        "provenance": _provenance(
            "gaf",
            {"mode": ns.mode, "b": ns.b, flag: extent, "trials": ns.trials},
            seed=ns.seed,
            threads=threads,
        ),
    }
    _emit(payload, ns.out)
    return 0


def _cmd_sphere(ns) -> int:
    if not ns.flow:
        for flag, name in ((ns.step, "--step"), (ns.iters, "--iters"), (ns.tol, "--tol")):
            if flag is not None:
                raise CliError(f"{name} requires --flow")
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
        "provenance": _provenance(
            "sphere",
            {"n": ns.n, "beta": ns.beta, "flow": ns.flow},
            seed=ns.seed,
        ),
    }
    _emit(payload, ns.out)
    return 0


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
    payload = {
        "r": ns.r,
        "alpha": alpha,
        "beta": beta,
        "tight": bool(ns.tight),
        "degree": f.degree,
        "value": value,
        "provenance": _provenance(
            "hyperbolic",
            {
                "r": ns.r,
                "alpha": alpha,
                "beta": beta,
                "tight": bool(ns.tight),
                "degree": f.degree,
            },
        ),
    }
    _emit(payload, ns.out)
    return 0


def _cmd_fock(ns) -> int:
    if ns.iters is not None and not ns.solve:
        raise CliError("--iters requires --solve")
    coeffs = _parse_coeffs(ns.coeffs)
    from . import fock

    f = fock.FockPolynomial(coeffs=coeffs)
    if ns.solve:
        iters = 200 if ns.iters is None else ns.iters
        solution, history = fock.fixed_point_solve(f, ns.omega, iters, 1e-12)
        payload = {
            "omega": ns.omega,
            "mode": "solve",
            "coeffs": _complex_pairs(solution.coeffs),
            "residual": history[-1],
            "iters": len(history),
        }
        params = {"omega": ns.omega, "solve": True, "iters": iters}
    else:
        projected = fock.cubic_projection(f)
        payload = {
            "omega": ns.omega,
            "mode": "project",
            "coeffs": _complex_pairs(projected.coeffs),
            "residual": fock.stationary_residual(f, ns.omega),
        }
        params = {"omega": ns.omega, "solve": False}
    payload["provenance"] = _provenance("fock", params)
    _emit(payload, ns.out)
    return 0


def _cmd_verify(ns) -> int:
    from . import hyperbolic

    report = hyperbolic.proof_constants_report()
    _emit(report.to_json_dict(), ns.out)
    return 0 if report.all_pass else 3


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeropack",
        description="Zero-packing discrepancy densities and their verifiers.",
    )
    parser.add_argument(
        "--version", action="version", version=f"zeropack {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("planar", help="triangular-lattice profile density")
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--grid", type=int, default=1024, help=_GRID_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_planar)

    p = sub.add_parser("curve", help="density across a list of beta values")
    p.add_argument("--betas", required=True, help="comma-separated floats")
    p.add_argument("--grid", type=int, default=1024, help=_GRID_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("gaf", help="Gaussian analytic function Monte Carlo")
    p.add_argument("--mode", choices=("planar", "hyperbolic"), required=True)
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--R", type=_finite_float, default=None, help="planar radius")
    p.add_argument("--r", type=_finite_float, default=None, help="hyperbolic radius")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_gaf)

    p = sub.add_parser("sphere", help="monopole configuration discrepancy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--flow", action="store_true")
    p.add_argument("--step", type=_finite_float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--tol", type=_finite_float, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sphere)

    p = sub.add_parser("hyperbolic", help="disk-candidate discrepancy witness")
    p.add_argument(
        "--coeffs", required=True, help="JSON array: numbers or [re, im] pairs"
    )
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--beta", type=_finite_float, default=None)
    p.add_argument("--tight", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_hyperbolic)

    p = sub.add_parser("fock", help="cubic projection / stationary solve")
    p.add_argument(
        "--coeffs", required=True, help="JSON array: numbers or [re, im] pairs"
    )
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--solve", action="store_true")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fock)

    p = sub.add_parser("verify", help="explicit proof-constant checks")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

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
