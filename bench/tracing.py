"""Spans around the public functions of each zeropack layer, recorded from outside.

`Tracer.install` rebinds each traced function in every zeropack module
namespace that holds it (gauss_legendre, for one, is bound in numerics,
planar, sphere, hyperbolic and the package itself) and wraps the two traced
methods on their classes.  Spans (name, start, end, parent, facts) are kept
in memory; `Tracer.remove` puts every original back and `summarize` turns
the spans into per-layer metrics.
"""
from __future__ import annotations

import inspect
import sys
import threading
import time
from typing import Any, Callable

import numpy as np

from zeropack import fock, hyperbolic, numerics, planar, sphere, weierstrass


def _size(value) -> int:
    return int(np.size(value))


def _mc_facts(args: dict) -> dict:
    return {"trials": args["trials"], "threads": args["threads"], "degree": args["truncation_N"]}


# span name -> (owner, attribute, facts(bound arguments, result) -> dict)
TARGETS: dict[str, tuple[Any, str, Callable[[dict, Any], dict]]] = {
    "numerics.gauss_legendre": (numerics, "gauss_legendre", lambda a, r: {"n": a["n"]}),
    "numerics.map_indexed": (numerics, "map_indexed", lambda a, r: {"threads": a.get("threads", 1)}),
    "weierstrass.log_abs_sigma": (weierstrass, "log_abs_sigma", lambda a, r: {"points": _size(a["z"])}),
    "planar.planar_lattice_density": (planar, "planar_lattice_density", lambda a, r: {"grid": a["grid_m"]}),
    "planar.planar_gaf_mc": (planar, "planar_gaf_mc", lambda a, r: _mc_facts(a)),
    "hyperbolic.make_disk_quadrature": (hyperbolic, "make_disk_quadrature", lambda a, r: {}),
    "hyperbolic.DiskFunction.values": (
        hyperbolic.DiskFunction, "values",
        lambda a, r: {"term_points": _size(a["z"]) * (a["self"].degree + 1)}),
    "hyperbolic.hyperbolic_discrepancy": (hyperbolic, "hyperbolic_discrepancy", lambda a, r: {}),
    "hyperbolic.tight_discrepancy": (hyperbolic, "tight_discrepancy", lambda a, r: {}),
    "hyperbolic.hyperbolic_gaf_mc": (hyperbolic, "hyperbolic_gaf_mc", lambda a, r: _mc_facts(a)),
    "sphere.SphereQuadrature": (sphere.SphereQuadrature, "__post_init__", lambda a, r: {}),
    "sphere.partition_function": (sphere, "partition_function", lambda a, r: {}),
    "sphere.discrepancy": (sphere, "discrepancy", lambda a, r: {}),
    "sphere.equilibrium_residual": (sphere, "equilibrium_residual", lambda a, r: {"n": a["config"].n}),
    "sphere.gradient_flow": (sphere, "gradient_flow", lambda a, r: {"iterations": len(r[1]) - 1}),
    "fock.cubic_projection": (fock, "cubic_projection", lambda a, r: {"degree": a["f"].degree}),
    "fock.stationary_residual": (fock, "stationary_residual", lambda a, r: {}),
    "fock.fixed_point_solve": (fock, "fixed_point_solve", lambda a, r: {"iterations": len(r[1])}),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, facts: Callable[[dict, Any], dict]) -> Callable:
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = {"name": name, "parent": stack[-1] if stack else None}
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span["id"])
            cpu0 = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.process_time() - cpu0
                stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(facts(bound.arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "zeropack" or n.startswith("zeropack.")]
        for name, (owner, attr, facts) in TARGETS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, facts)
            if inspect.isclass(owner):
                self._bindings.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> bool:
        """Restore every original binding; True when all of them are back."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        restored = all(getattr(owner, attr) is original for owner, attr, original in self._bindings)
        self._bindings.clear()
        return restored


def _ancestor_named(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-function calls and self time, plus the per-layer ratios built on them."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    by_name: dict[str, list[dict]] = {name: [] for name in TARGETS}
    self_s = {name: 0.0 for name in TARGETS}
    for span, children in zip(spans, child_time):
        by_name[span["name"]].append(span)
        self_s[span["name"]] += span["end"] - span["start"] - children

    def total(name: str, fact: str) -> float:
        return sum(s.get(fact, 0) for s in by_name[name])

    def inclusive(name: str, **where) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name]
                   if all(s.get(k) == v for k, v in where.items()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.self_s"] = self_s[name]

    sizes = [s["n"] for s in by_name["numerics.gauss_legendre"]]
    out["numerics.gauss_legendre.nodes"] = sum(sizes)
    out["numerics.gauss_legendre.repeat_share"] = ratio(len(sizes) - len(set(sizes)), len(sizes))

    maps = by_name["numerics.map_indexed"]
    busy = sum((s["end"] - s["start"]) * s.get("threads", 1) for s in maps)
    out["numerics.map_indexed.cpu_util"] = ratio(sum(s["cpu"] for s in maps), busy)
    single = inclusive("numerics.map_indexed", threads=1)
    multi = sum(s["end"] - s["start"] for s in maps if s.get("threads", 1) > 1)
    out["numerics.map_indexed.speedup"] = ratio(single, multi)

    points = total("weierstrass.log_abs_sigma", "points")
    out["weierstrass.log_abs_sigma.points"] = points
    out["weierstrass.log_abs_sigma.ns_per_point"] = ratio(1e9 * self_s["weierstrass.log_abs_sigma"], points)
    out["planar.points_per_result"] = ratio(points, len(by_name["planar.planar_lattice_density"]))

    for name in ("planar.planar_gaf_mc", "hyperbolic.hyperbolic_gaf_mc"):
        out[f"{name}.s_per_trial"] = ratio(inclusive(name), total(name, "trials"))

    terms = total("hyperbolic.DiskFunction.values", "term_points")
    out["hyperbolic.DiskFunction.values.term_points"] = terms
    out["hyperbolic.DiskFunction.values.ns_per_term_point"] = ratio(
        1e9 * self_s["hyperbolic.DiskFunction.values"], terms)

    for name in ("sphere.gradient_flow", "fock.fixed_point_solve"):
        iterations = total(name, "iterations")
        out[f"{name}.iterations"] = iterations
        out[f"{name}.s_per_iteration"] = ratio(inclusive(name), iterations)
    in_solve = sum(1 for s in by_name["fock.cubic_projection"]
                   if _ancestor_named(spans, s, "fock.fixed_point_solve"))
    out["fock.cubic_projection.calls_per_iteration"] = ratio(in_solve, total("fock.fixed_point_solve", "iterations"))
    return out


def probe(nproc: int) -> None:
    """One minimal call into every traced function.

    Runs after the workload's traced batch, so every per-layer metric is
    measured on every workload; on a workload that does not use a layer, its
    numbers are the probe's alone and stay the same from commit to commit
    unless that layer changes.
    """
    numerics.map_indexed(lambda i: i * i, 4, 1)
    numerics.map_indexed(lambda i: i * i, 4, nproc)
    profile = planar.make_triangular_profile()
    weierstrass.log_abs_sigma(profile.ctx, np.linspace(0.1, 0.9, 16) + 0.3j)
    planar.planar_lattice_density(1.0, 16)
    rng = numerics.RngStream(seed=1)
    planar.planar_gaf_mc(1.0, 1.0, planar.planar_gaf_truncation(1.0), 2, rng, n_radial=8, n_angular=8)
    quad = hyperbolic.make_disk_quadrature(0.5, n_radial=8, n_angular=8)
    f = hyperbolic.DiskFunction(coeffs=(1.0, 0.5))
    hyperbolic.hyperbolic_discrepancy(f, 0.5, quad=quad)
    hyperbolic.tight_discrepancy(f, 0.5, quad=quad)
    hyperbolic.hyperbolic_gaf_mc(0.5, 1.0, hyperbolic.hyperbolic_gaf_truncation(0.5), 2, rng,
                                 n_radial=8, n_angular=8)
    squad = sphere.SphereQuadrature(n_polar=8, n_azimuthal=16)
    config = sphere.random_configuration(3, rng)
    sphere.partition_function(config, 1.0, squad)
    sphere.discrepancy(config, 1.0, squad)
    sphere.equilibrium_residual(config, 1.0, squad)
    sphere.gradient_flow(3, 1.0, config, max_iters=1, quad=squad)
    g = fock.FockPolynomial((1.0, 0.5))
    fock.cubic_projection(g)
    fock.stationary_residual(g, 0.5)
    fock.fixed_point_solve(g, 0.5, 2, 1e-12)
